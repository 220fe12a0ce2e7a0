(* Tests of the benchmark's own machinery: the percentile helper, and that
   the tracing wrapper only observes. The workloads run at reduced sizes;
   the properties do not depend on size. *)

open Perfbench
module W = Workload

let check_float = Alcotest.(check (float 1e-12))

let ascending n = Array.init n (fun i -> float_of_int (i + 1))

let shuffled n =
  let a = ascending n in
  let prng = Gcs_stdx.Prng.create 7 in
  for i = n - 1 downto 1 do
    let j = Gcs_stdx.Prng.int prng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let summary_of samples =
  match Stats.summarize samples with
  | Some s -> s
  | None -> Alcotest.fail "no summary"

let test_median_and_count () =
  let s = summary_of (shuffled 101) in
  Alcotest.(check int) "count" 101 s.Stats.count;
  check_float "p50" 51.0 s.Stats.p50;
  check_float "list median, odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "list median, even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_reference_slowdown () =
  let nominal = Reference.nominal_s in
  check_float "nominal host" 1.0 (Reference.slowdown ~before:nominal ~after:nominal);
  check_float "mean of the two runs" 1.5
    (Reference.slowdown ~before:nominal ~after:(2.0 *. nominal));
  Alcotest.(check bool) "the job takes time" true (Reference.cpu_s () > 0.0)

let test_highest_supported_tail () =
  let tail n = (summary_of (shuffled n)).Stats.tail in
  let pair = Alcotest.(option (pair (float 1e-12) (float 1e-12))) in
  (* 1000 samples: p99 (990) has exactly 10 beyond it, p99.9 only 1. *)
  Alcotest.check pair "n=1000" (Some (0.99, 990.0)) (tail 1000);
  Alcotest.check pair "n=10000" (Some (0.999, 9990.0)) (tail 10000);
  Alcotest.check pair "n=100" (Some (0.9, 90.0)) (tail 100);
  Alcotest.check pair "n=99: nothing has 10 beyond it" None (tail 99)

let test_refuses_unsupported_p99 () =
  let opt = Alcotest.(option (float 1e-12)) in
  Alcotest.check opt "999 samples" None (Stats.percentile (ascending 999) 0.99);
  Alcotest.check opt "1000 samples" (Some 990.0) (Stats.percentile (ascending 1000) 0.99);
  Alcotest.check opt "no samples" None (Stats.percentile [||] 0.5);
  Alcotest.(check bool) "empty summary" true (Stats.summarize [||] = None);
  let a = shuffled 50 in
  let copy = Array.copy a in
  ignore (Stats.summarize a);
  Alcotest.(check bool) "input untouched" true (a = copy)

(* ------------------------------------------------------------------ *)

let spec name load =
  match W.find name with
  | Some s -> { s with W.load }
  | None -> Alcotest.failf "no workload %s" name

let small_bulk = spec "vstoto-sim-bulk" (W.Preload 5000)

let small_partition =
  spec "vstoto-sim-partition" (W.Paced { rate = 4.0; span = 300.0 })

let total_busy tr =
  List.fold_left (fun acc c -> acc +. (Tracer.site tr c).Tracer.busy_s) 0.0 Tracer.calls

let assert_passes what (r : W.rep) =
  Alcotest.(check (list string)) (what ^ ": oracles") [] r.W.errors;
  Alcotest.(check int) (what ^ ": every delivery") r.W.expected r.W.delivered

let observes_only spec () =
  let seed = 5 in
  let plain = W.run_rep spec ~seed ~wrap:Fun.id in
  let tr = Tracer.create () in
  let traced = W.run_rep spec ~seed ~wrap:(Tracer.wrap tr) in
  assert_passes "untraced" plain;
  assert_passes "traced" traced;
  Alcotest.(check string)
    "client trace byte-identical with tracing on and off"
    (Digest.to_hex plain.W.digest) (Digest.to_hex traced.W.digest);
  Alcotest.(check bool) "handlers were timed" true
    ((Tracer.site tr Tracer.On_packet).Tracer.calls > 0);
  Alcotest.(check int) "the simulator never encodes" 0 (Tracer.site tr Tracer.Enc).Tracer.calls;
  (* Reconciliation. On the single-domain simulator the spans are disjoint
     pieces of the run, so attributed busy plus engine self time
     (run wall - busy) is the run's wall time, and that is at least the
     process CPU over the run. Descheduling only widens wall time, so these
     directions hold on a loaded machine too. *)
  let wall = Tracer.run_wall_s tr and cpu = Tracer.run_cpu_s tr in
  let busy = total_busy tr in
  Alcotest.(check bool) "engine self time is not negative" true (wall -. busy >= 0.0);
  Alcotest.(check bool) "process CPU fits in busy + self" true (cpu <= (wall *. 1.05) +. 0.005);
  Alcotest.(check bool) "handlers are most of the CPU" true (busy >= 0.5 *. cpu)

let bus_codec_is_attributed () =
  let spec = spec "vstoto-bus-paced" (W.Preload 200) in
  let tr = Tracer.create () in
  let r = W.run_rep spec ~seed:3 ~wrap:(Tracer.wrap tr) in
  assert_passes "bus" r;
  let enc = Tracer.site tr Tracer.Enc and dec = Tracer.site tr Tracer.Dec in
  Alcotest.(check bool) "every node domain made calls" true
    (List.length (Tracer.domain_busy tr) >= spec.W.n);
  Alcotest.(check bool) "frames encoded and decoded" true
    (enc.Tracer.calls > 0 && dec.Tracer.calls > 0 && Tracer.encoded_bytes tr > 0);
  (* A domain's spans are disjoint pieces of the run. *)
  Alcotest.(check bool) "no domain is busy longer than the run" true
    (List.for_all (fun (_, b) -> b <= Tracer.run_wall_s tr) (Tracer.domain_busy tr))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median and count" `Quick test_median_and_count;
          Alcotest.test_case "reference slowdown" `Quick test_reference_slowdown;
          Alcotest.test_case "highest supported tail" `Quick test_highest_supported_tail;
          Alcotest.test_case "refuses unsupported p99" `Quick test_refuses_unsupported_p99;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "only observes: sim bulk" `Quick (observes_only small_bulk);
          Alcotest.test_case "only observes: sim partition" `Quick
            (observes_only small_partition);
          Alcotest.test_case "bus codec calls attributed" `Quick bus_codec_is_attributed;
        ] );
    ]
