module Iface = Gcs_transport.Iface

type call = On_input | On_packet | On_timer | Enc | Dec

let calls = [ On_input; On_packet; On_timer; Enc; Dec ]

let index = function
  | On_input -> 0
  | On_packet -> 1
  | On_timer -> 2
  | Enc -> 3
  | Dec -> 4

let call_name = function
  | On_input -> "on_input"
  | On_packet -> "on_packet"
  | On_timer -> "on_timer"
  | Enc -> "enc"
  | Dec -> "dec"

let ncalls = List.length calls

(* One domain's buffer. Only its own domain writes it while the run goes;
   it is read after the backend has joined every domain it spawned. *)
type buffer = {
  domain : int;
  count : int array;
  busy : float array;
  words : float array;
  mutable bytes : int;
  mutable spans : int;
  mutable span_call : int array;
  mutable span_start : float array;
  mutable span_stop : float array;
}

let fresh_buffer () =
  {
    domain = (Domain.self () :> int);
    count = Array.make ncalls 0;
    busy = Array.make ncalls 0.0;
    words = Array.make ncalls 0.0;
    bytes = 0;
    spans = 0;
    span_call = Array.make 1024 0;
    span_start = Array.make 1024 0.0;
    span_stop = Array.make 1024 0.0;
  }

type t = {
  key : buffer Domain.DLS.key;
  buffers : buffer list Atomic.t;
  gc : Gc_events.t option;
  mutable word_bias : float;
  mutable started : float;
  mutable wall : float;
  mutable cpu : float;
}

let create ?gc () =
  let buffers = Atomic.make [] in
  let rec register b =
    let old = Atomic.get buffers in
    if not (Atomic.compare_and_set buffers old (b :: old)) then register b
  in
  let key =
    Domain.DLS.new_key (fun () ->
        let b = fresh_buffer () in
        register b;
        b)
  in
  { key; buffers; gc; word_bias = 0.0; started = 0.0; wall = 0.0; cpu = 0.0 }

let grow b =
  let cap = 2 * Array.length b.span_start in
  let extend a zero =
    let a' = Array.make cap zero in
    Array.blit a 0 a' 0 b.spans;
    a'
  in
  b.span_call <- extend b.span_call 0;
  b.span_start <- extend b.span_start 0.0;
  b.span_stop <- extend b.span_stop 0.0

let poll_every = 64

let note t b i start stop words =
  b.count.(i) <- b.count.(i) + 1;
  b.busy.(i) <- b.busy.(i) +. (stop -. start);
  b.words.(i) <- b.words.(i) +. (words -. t.word_bias);
  if b.spans = Array.length b.span_start then grow b;
  b.span_call.(b.spans) <- i;
  b.span_start.(b.spans) <- start;
  b.span_stop.(b.spans) <- stop;
  b.spans <- b.spans + 1;
  match t.gc with
  | Some gc when b.spans mod poll_every = 0 && Domain.is_main_domain () ->
      Gc_events.poll gc
  | _ -> ()

(* The words counted between the two [Gc.minor_words] reads include the
   timer reads themselves; [word_bias] (measured on an empty span by
   [calibrate]) is subtracted from every span. *)
let timed t call f =
  let b = Domain.DLS.get t.key in
  let w0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  let r = f () in
  let stop = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  note t b (index call) start stop (w1 -. w0);
  r

let calibrate t =
  let w0 = Gc.minor_words () in
  let _ = Unix.gettimeofday () in
  let _ = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  t.word_bias <- w1 -. w0

let wrap t (module B : Iface.BACKEND) : Iface.backend =
  calibrate t;
  (module struct
    let name = B.name

    let run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      let h = handlers in
      let handlers =
        {
          Iface.on_start = h.Iface.on_start;
          on_input =
            (fun p ~now input s ->
              timed t On_input (fun () -> h.Iface.on_input p ~now input s));
          on_packet =
            (fun p ~now ~src packet s ->
              timed t On_packet (fun () ->
                  h.Iface.on_packet p ~now ~src packet s));
          on_timer =
            (fun p ~now ~id s ->
              timed t On_timer (fun () -> h.Iface.on_timer p ~now ~id s));
        }
      in
      let codec =
        {
          Iface.enc =
            (fun packet ->
              let s = timed t Enc (fun () -> codec.Iface.enc packet) in
              let b = Domain.DLS.get t.key in
              b.bytes <- b.bytes + String.length s;
              s);
          dec = (fun s -> timed t Dec (fun () -> codec.Iface.dec s));
        }
      in
      (* The bus calls [stop] from its controller on the main domain every
         tick; the simulator never calls it. *)
      let stop =
        match (t.gc, stop) with
        | None, _ -> stop
        | Some gc, stop ->
            Some
              (fun ~now ~outputs ->
                Gc_events.poll gc;
                match stop with Some f -> f ~now ~outputs | None -> false)
      in
      let c0 = Sys.time () in
      let w0 = Unix.gettimeofday () in
      t.started <- w0;
      let result =
        B.run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
          ~failures ~until ~seed
      in
      t.wall <- Unix.gettimeofday () -. w0;
      t.cpu <- Sys.time () -. c0;
      result
  end)

type site = { calls : int; busy_s : float; words : float }

let site t call =
  let i = index call in
  List.fold_left
    (fun acc b ->
      {
        calls = acc.calls + b.count.(i);
        busy_s = acc.busy_s +. b.busy.(i);
        words = acc.words +. b.words.(i);
      })
    { calls = 0; busy_s = 0.0; words = 0.0 }
    (Atomic.get t.buffers)

let encoded_bytes t =
  List.fold_left (fun acc b -> acc + b.bytes) 0 (Atomic.get t.buffers)

let run_wall_s t = t.wall
let run_cpu_s t = t.cpu

let domain_busy t =
  List.filter_map
    (fun b ->
      if Array.exists (fun c -> c > 0) b.count then
        Some (b.domain, Array.fold_left ( +. ) 0.0 b.busy)
      else None)
    (Atomic.get t.buffers)
  |> List.sort compare

let write_chrome t ~run ~name oc =
  let us x = (x -. t.started) *. 1e6 in
  let event ~name ~tid ~start ~stop =
    Printf.fprintf oc
      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":\"%s\"}}"
      name tid (us start) ((stop -. start) *. 1e6) run
  in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Printf.fprintf oc
    "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":0.000,\"dur\":%.3f,\"args\":{}}"
    run
    (Domain.self () :> int)
    (t.wall *. 1e6);
  let call_of = Array.of_list calls in
  List.iter
    (fun b ->
      for k = 0 to b.spans - 1 do
        event
          ~name:(name call_of.(b.span_call.(k)))
          ~tid:b.domain ~start:b.span_start.(k) ~stop:b.span_stop.(k)
      done)
    (List.rev (Atomic.get t.buffers));
  output_string oc "\n]}\n"
