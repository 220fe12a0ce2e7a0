(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats the untraced workload for S seconds and reports the
   end-to-end metrics. --trace 1 alternates untraced and traced
   repetitions (traced through Tracer.wrap) for S seconds and reports the
   per-layer metrics. Every repetition's outputs are checked; a failing
   one is printed and counted, never dropped. The last line of standard
   output is one JSON object ({"correct", "attempted", "failed",
   "metrics"}); the lines before it give the same figures for a reader.
   The names, units and reasons are in BENCHMARK.json; perfbench/run.py
   builds this program and combines several invocations into one run. *)

open Perfbench
module W = Workload

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.specs));
  exit 2

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match W.find !workload with
  | Some spec when !seconds > 0 && (!trace = 0 || !trace = 1) ->
      (spec, !seed, float_of_int !seconds, !trace = 1)
  | _ -> usage ()

(* Each repetition and set-up sample starts after a full collection, so
   none is charged for collecting the garbage the previous one left. *)
let fresh_heap () = Gc.compact ()

(* Run [f] between two runs of the reference job and return its result with
   the host's slowdown over it. [last] holds the job's latest time, so
   consecutive calls share the run between them. *)
let bracket last f =
  let before = match !last with Some k -> k | None -> Reference.cpu_s () in
  let r = f () in
  let after = Reference.cpu_s () in
  last := Some after;
  (r, Reference.slowdown ~before ~after)

(* Repeat [f] while the next repetition's time ([cost]: set-up and run,
   and the reference job after them where there is one; not the checks)
   is expected to fit in [seconds]; at least once. *)
let repeat ~seconds ~cost f =
  let rec go i acc used last =
    if acc <> [] && used +. last > seconds then List.rev acc
    else
      let r = f i in
      let c = cost r in
      go (i + 1) (r :: acc) (used +. c) c
  in
  go 0 [] 0.0 0.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
let median_of f reps = Stats.median (List.map f reps)
let per_value f (r : W.rep) = f r /. float_of_int r.W.values
let cpu_us_per_value = per_value (fun r -> r.W.cpu_s *. 1e6)

let percentile samples q =
  match Stats.percentile samples q with
  | Some v -> v
  | None ->
      (* Every workload yields thousands of samples; refusing is a defect. *)
      failwith
        (Printf.sprintf "p%g refused on %d samples" (q *. 100.0) (Array.length samples))

(* Work done in one domain at the CPU's pace (set-up, and a whole
   simulator repetition: its wall time is its CPU time) is timed as on the
   nominal host of Reference: divided by the slowdown measured around it.
   The bus is not scaled: its wall-clock figures follow the paced schedule,
   and its CPU time, spent by four domains waking one another on shared
   cores, moved a third as much as the reference job's did, so scaling it
   added noise. The simulator's latencies are virtual. *)
let end_to_end spec ~setups ~slowdowns reps =
  let on_sim = spec.W.transport = W.Sim in
  let scaled f =
    Stats.median (List.map2 (fun r s -> f r (if on_sim then s else 1.0)) reps slowdowns)
  in
  [
    metric "client_msgs_per_s" "1/s"
      (scaled (fun r s -> float_of_int r.W.delivered /. r.W.wall_s *. s));
    metric "latency_p50_s" "s" (median_of (fun r -> percentile r.W.latency 0.5) reps);
    metric "cpu_us_per_value" "us" (scaled (fun r s -> cpu_us_per_value r /. s));
    metric "alloc_words_per_value" "words"
      (median_of (per_value (fun r -> r.W.alloc_words)) reps);
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
    metric "setup_s" "s" (Stats.median (List.map (fun (t, s) -> t /. s) setups));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of one traced repetition                          *)

let handler_layer = function W.Vstoto -> "to_service" | W.Skeen_ts -> "skeen"
let codec_layer = function W.Vstoto -> "wire" | W.Skeen_ts -> "skeen.codec"

(* Every name is reported on every workload; a layer the workload does not
   run reads 0. *)
let site_metrics spec tr ~protocol layer calls =
  List.concat_map
    (fun call ->
      let s =
        if spec.W.protocol = protocol then Tracer.site tr call
        else { Tracer.calls = 0; busy_s = 0.0; words = 0.0 }
      in
      let name field = Printf.sprintf "%s.%s.%s" layer (Tracer.call_name call) field in
      [
        metric (name "calls") "count" (float_of_int s.Tracer.calls);
        metric (name "busy_s") "s" s.Tracer.busy_s;
        metric (name "words") "words" s.Tracer.words;
      ])
    calls

let layer_metrics spec (r : W.rep) tr ~gc_pause =
  let counter name = float_of_int (Gcs_stdx.Metrics.counter r.W.registry name) in
  let on_bus = spec.W.transport = W.Bus in
  let busy =
    List.fold_left (fun acc c -> acc +. (Tracer.site tr c).Tracer.busy_s) 0.0 Tracer.calls
  in
  let wall = Tracer.run_wall_s tr and cpu = Tracer.run_cpu_s tr in
  let domains = Tracer.domain_busy tr in
  let batches, batch_mean =
    match Gcs_stdx.Metrics.histogram r.W.registry "to.batch_size" with
    | Some (_, c, sum, _) when c > 0 -> (float_of_int c, sum /. float_of_int c)
    | _ -> (0.0, 0.0)
  in
  let check name = try List.assoc name r.W.checks with Not_found -> 0.0 in
  let if_bus v = if on_bus then v else 0.0 and if_sim v = if on_bus then 0.0 else v in
  let encoded = float_of_int (Tracer.encoded_bytes tr) in
  site_metrics spec tr ~protocol:W.Vstoto "to_service"
    Tracer.[ On_input; On_packet; On_timer ]
  @ site_metrics spec tr ~protocol:W.Vstoto "wire" Tracer.[ Enc; Dec ]
  @ [
      metric "wire.bytes_per_value" "bytes"
        (if spec.W.protocol = W.Vstoto then encoded /. float_of_int r.W.values else 0.0);
    ]
  @ site_metrics spec tr ~protocol:W.Skeen_ts "skeen" Tracer.[ On_input; On_packet ]
  @ site_metrics spec tr ~protocol:W.Skeen_ts "skeen.codec" Tracer.[ Enc; Dec ]
  @ [
      metric "bus.packets_sent" "count" (counter "bus.packets_sent");
      metric "bus.events_processed" "count" (counter "bus.events_processed");
      metric "bus.node_busy_frac" "frac"
        (if_bus (List.fold_left (fun acc (_, b) -> Float.max acc (b /. wall)) 0.0 domains));
      metric "bus.node_wait_s" "s"
        (if_bus
           (match domains with
           | [] -> 0.0
           | _ ->
               List.fold_left (fun acc (_, b) -> acc +. (wall -. b)) 0.0 domains
               /. float_of_int (List.length domains)));
      metric "bus.self_s" "s" (if_bus (cpu -. busy));
      metric "engine.events_processed" "count" (counter "engine.events_processed");
      metric "engine.packets_sent" "count" (counter "engine.packets_sent");
      metric "engine.self_s" "s" (if_sim (wall -. busy));
      metric "to.gpsnd_batches" "count" batches;
      metric "to.batch_mean" "values" batch_mean;
      metric "vs.views_installed" "count" (counter "vs.views_installed");
      metric "vs.membership_rounds" "count" (counter "vs.membership_rounds");
      metric "vs.tokens_launched" "count" (counter "vs.tokens_launched");
      metric "outage_s" "s" r.W.outage_s;
      metric "recovery_s" "s" r.W.recovery_s;
      metric "gc.minor_collections" "count" (float_of_int r.W.minor_collections);
      metric "gc.major_collections" "count" (float_of_int r.W.major_collections);
      metric "gc.pause_s" "s" gc_pause;
      metric "check.to_conforms.busy_s" "s" (check "to_conforms");
      metric "check.vs_conforms.busy_s" "s" (check "vs_conforms");
      metric "check.skeen_order.busy_s" "s" (check "skeen_order");
      metric "loadgen.lag_p99_s" "s" (percentile r.W.lag 0.99);
      metric "latency.samples" "count" (float_of_int (Array.length r.W.latency));
      metric "trace.attributed_frac" "frac" (busy /. cpu);
    ]

(* Median of each metric over the traced repetitions. *)
let median_metrics = function
  | [] -> []
  | first :: _ as all ->
      List.mapi
        (fun i m -> { m with value = Stats.median (List.map (fun ms -> (List.nth ms i).value) all) })
        first

(* ------------------------------------------------------------------ *)

let out_dir = ".bench_out"

let write_chrome spec ~seed tr =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat out_dir (Printf.sprintf "%s.seed%d.trace.json" spec.W.name seed) in
  let oc = open_out path in
  let layer call =
    match call with
    | Tracer.Enc | Tracer.Dec -> codec_layer spec.W.protocol
    | _ -> handler_layer spec.W.protocol
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Tracer.write_chrome tr ~run:spec.W.name
        ~name:(fun c -> layer c ^ "." ^ Tracer.call_name c)
        oc);
  path

let print_rep tag (r : W.rep) =
  let lat = Stats.summarize r.W.latency and lag = Stats.summarize r.W.lag in
  let pp_summary = function
    | None -> "no samples"
    | Some s ->
        Printf.sprintf "p50 %.6g s, %s, n=%d" s.Stats.p50
          (match s.Stats.tail with
          | Some (q, v) -> Printf.sprintf "p%g %.6g s" (q *. 100.0) v
          | None -> "no tail")
          s.Stats.count
  in
  Printf.printf
    "%s: setup %.4f s, run %.3f s wall %.3f s cpu, %d/%d deliveries, latency %s; loadgen lag %s%s\n"
    tag r.W.setup_s r.W.wall_s r.W.cpu_s r.W.delivered r.W.expected (pp_summary lat)
    (pp_summary lag)
    (String.concat "" (List.map (fun e -> "\n  FAILED " ^ e) r.W.errors))

let json_number v = Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "  %-32s %.6g %s\n" x.name x.value x.unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
             x.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let () =
  let spec, seed, seconds, trace = parse () in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d\n%!" spec.W.name seed seconds
    (if trace then 1 else 0);
  let last_reference = ref None in
  (* Set-up takes milliseconds, so it is sampled many times, all between
     the same two runs of the reference job. *)
  let setups =
    let times, slowdown =
      bracket last_reference (fun () ->
          List.init 9 (fun _ ->
              fresh_heap ();
              W.setup_only spec ~seed))
    in
    List.map (fun t -> (t, slowdown)) times
  in
  let cost (r : W.rep) = r.W.setup_s +. r.W.wall_s in
  let untraced () =
    fresh_heap ();
    W.run_rep spec ~seed ~wrap:Fun.id
  in
  let reps, slowdowns, traced =
    if not trace then
      let measured =
        repeat ~seconds
          ~cost:(fun (r, _) -> cost r +. Reference.nominal_s)
          (fun _ -> bracket last_reference untraced)
      in
      (List.map fst measured, List.map snd measured, [])
    else begin
      let gc = Gc_events.create () in
      let traced () =
        fresh_heap ();
        let tr = Tracer.create ~gc () in
        Gc_events.resume gc;
        let r = W.run_rep spec ~seed ~wrap:(Tracer.wrap tr) in
        Gc_events.pause gc;
        if Gc_events.lost gc > 0 then
          Printf.printf "warning: %d GC events lost\n" (Gc_events.lost gc);
        (r, tr, Gc_events.pause_s gc)
      in
      (* Alternate which side of a pair runs first. *)
      let pairs =
        repeat ~seconds
          ~cost:(fun (u, (t, _, _)) -> cost u +. cost t)
          (fun i ->
            if i mod 2 = 0 then
              let u = untraced () in
              (u, traced ())
            else
              let t = traced () in
              (untraced (), t))
      in
      (List.map fst pairs, [], List.map snd pairs)
    end
  in
  let traced_reps = List.map (fun (r, _, _) -> r) traced in
  List.iter (print_rep "untraced") reps;
  List.iter (print_rep "traced") traced_reps;
  let all = reps @ traced_reps in
  let attempted = List.fold_left (fun acc r -> acc + r.W.expected) 0 all in
  let failed =
    List.fold_left
      (fun acc r ->
        acc + if r.W.errors <> [] then r.W.expected else max 0 (r.W.expected - r.W.delivered))
      0 all
  in
  (* The simulator is deterministic: every repetition of one seed, traced
     or not, must produce the same client trace byte for byte. *)
  let perturbed =
    spec.W.transport = W.Sim
    && match all with
       | first :: rest -> List.exists (fun r -> r.W.digest <> first.W.digest) rest
       | [] -> false
  in
  if perturbed then
    print_endline "FAILED: client traces differ between repetitions of one seed";
  Printf.printf "failed_frac %.6g (%d of %d deliveries)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  let metrics =
    if not trace then begin
      (match spec.W.partition with
      | Some _ ->
          Printf.printf "outage_s %.6g s (virtual)\nrecovery_s %.6g s (virtual)\n"
            (median_of (fun r -> r.W.outage_s) reps)
            (median_of (fun r -> r.W.recovery_s) reps)
      | None -> print_endline "outage_s, recovery_s: n/a (no partition)");
      let setup_times = List.map fst setups in
      Printf.printf "set-up samples: min %.4f s, median %.4f s, max %.4f s\n"
        (List.fold_left Float.min infinity setup_times) (Stats.median setup_times)
        (List.fold_left Float.max neg_infinity setup_times);
      Printf.printf
        "host slowdown against the reference job: median %.3f over the repetitions, min %.3f, max %.3f\n"
        (Stats.median slowdowns)
        (List.fold_left Float.min infinity slowdowns)
        (List.fold_left Float.max neg_infinity slowdowns);
      Printf.printf "latency_p99_s %.6g s (reported, not gated: see per_layer)\n"
        (median_of (fun r -> percentile r.W.latency 0.99) reps);
      end_to_end spec
        ~setups:(setups @ List.map2 (fun r s -> (r.W.setup_s, s)) reps slowdowns)
        ~slowdowns reps
    end
    else begin
      let _, last_tr, _ = List.nth traced (List.length traced - 1) in
      Printf.printf "chrome trace: %s\n" (write_chrome spec ~seed last_tr);
      median_metrics
        (List.map (fun (r, tr, gc_pause) -> layer_metrics spec r tr ~gc_pause) traced)
      @ [
          metric "latency_p99_s" "s" (median_of (fun r -> percentile r.W.latency 0.99) reps);
          metric "trace.overhead_frac" "frac"
            ((median_of cpu_us_per_value traced_reps /. median_of cpu_us_per_value reps)
            -. 1.0);
        ]
    end
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then print_endline "FAILED: a metric is not a finite number";
  let metrics =
    List.map (fun x -> if Float.is_finite x.value then x else { x with value = -1.0 }) metrics
  in
  print_result ~correct:(failed = 0 && (not perturbed) && finite) ~attempted ~failed metrics
