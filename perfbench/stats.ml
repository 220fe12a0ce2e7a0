let min_beyond = 10

type summary = { count : int; p50 : float; tail : (float * float) option }

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [q] of the samples at or
   below it. *)
let rank n q = max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let supported n q = n - rank n q >= min_beyond

let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 || not (supported n q) then None
  else Some sorted.(rank n q - 1)

let percentile samples q = percentile_sorted (sorted_copy samples) q

let tail_ladder = [ 0.999; 0.99; 0.95; 0.9 ]

let summarize samples =
  let n = Array.length samples in
  if n = 0 then None
  else
    let sorted = sorted_copy samples in
    let tail =
      List.find_map
        (fun q -> Option.map (fun v -> (q, v)) (percentile_sorted sorted q))
        tail_ladder
    in
    Some { count = n; p50 = sorted.(rank n 0.5 - 1); tail }

let median = function
  | [] -> invalid_arg "Stats.median: no values"
  | values ->
      let a = Array.of_list values in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
