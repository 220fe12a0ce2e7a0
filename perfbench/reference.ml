module Smap = Map.Make (String)

let nominal_s = 0.08
let length = 200_000

let job () =
  let xs = List.init length (fun i -> ((i * 7919) + 17) mod 100_003) in
  let sorted = List.sort compare xs in
  let keyed =
    List.fold_left
      (fun m x -> if x land 3 = 0 then Smap.add (string_of_int x) x m else m)
      Smap.empty xs
  in
  List.fold_left ( + ) 0 sorted + Smap.cardinal keyed

let cpu_s () =
  Gc.compact ();
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (job ()));
  Sys.time () -. t0

let slowdown ~before ~after = (before +. after) /. 2.0 /. nominal_s
