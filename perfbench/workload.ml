open Gcs_core
module Iface = Gcs_transport.Iface
module Metrics = Gcs_stdx.Metrics
module Prng = Gcs_stdx.Prng
module To_service = Gcs_impl.To_service
module Vs_node = Gcs_impl.Vs_node
module Skeen = Gcs_skeen.Skeen

type protocol = Vstoto | Skeen_ts  (** VStoTO over VS, or Skeen timestamps *)
type transport = Sim | Bus

type load =
  | Preload of int  (** values per processor, all due at t = 0 *)
  | Paced of { rate : float; span : float }
      (** an open loop: [rate] values per second per processor, due on a
          fixed schedule for [span] seconds of the backend's time (wall
          on the bus, virtual on the simulator) *)

type spec = {
  name : string;
  protocol : protocol;
  transport : transport;
  n : int;
  load : load;
  partition : (float * float) option;
      (** (split, heal) as shares of the load's span: the first
          [n / 2 + 1] processors are cut off from the rest at the split *)
}

(* Wall seconds of offered load in one bus repetition: long enough that the
   pipeline's start-up (the first token rotations) is a small part of it,
   short enough that a run repeats it and reports the median. *)
let bus_span = 4.0

let specs =
  [
    {
      name = "vstoto-sim-bulk";
      protocol = Vstoto;
      transport = Sim;
      n = 3;
      load = Preload 5_000;
      partition = None;
    };
    {
      name = "vstoto-bus-paced";
      protocol = Vstoto;
      transport = Bus;
      n = 3;
      load = Paced { rate = 3000.0; span = bus_span };
      partition = None;
    };
    {
      name = "skeen-bus-paced";
      protocol = Skeen_ts;
      transport = Bus;
      n = 3;
      load = Paced { rate = 500.0; span = bus_span };
      partition = None;
    };
    {
      name = "vstoto-sim-partition";
      protocol = Vstoto;
      transport = Sim;
      n = 5;
      load = Paced { rate = 10.0; span = 250.0 };
      partition = Some (0.25, 0.60);
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) specs

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* Everything random in a run comes from the workload seed: the due
   times' per-processor phase, a tag in every value, and the seed handed
   to the backend. The program receives only the generated inputs. *)
type inputs = {
  schedule : (float * Proc.t * Value.t) list;  (** (due, processor, value) *)
  backend_seed : int;
  span : float;  (** last due time, in the backend's time *)
}

let make_inputs spec ~seed =
  let root = Prng.create seed in
  let backend_seed = Prng.int root 0x3fffffff in
  let prng = Prng.split root in
  let value p k =
    Printf.sprintf "%d.%d.%08Lx" p k (Int64.logand (Prng.bits64 prng) 0xffffffffL)
  in
  let per_proc count due =
    List.concat_map
      (fun p ->
        let due = due (Prng.float prng) in
        List.init count (fun k -> (due k, p, value p k)))
      (Proc.all ~n:spec.n)
  in
  let schedule, span =
    match spec.load with
    | Preload count -> (per_proc count (fun _ _ -> 0.0), 0.0)
    | Paced { rate; span } ->
        let count = int_of_float (rate *. span) in
        let due phase k = (phase +. float_of_int k) /. rate in
        (per_proc count due, span)
  in
  { schedule; backend_seed; span }

let majority spec = List.init ((spec.n / 2) + 1) Fun.id

let minority spec =
  List.filter (fun p -> not (List.mem p (majority spec))) (Proc.all ~n:spec.n)

let fault_times spec inputs =
  Option.map
    (fun (split, heal) -> (split *. inputs.span, heal *. inputs.span))
    spec.partition

let failures spec inputs =
  match fault_times spec inputs with
  | None -> []
  | Some (split, heal) ->
      let procs = Proc.all ~n:spec.n in
      List.map
        (fun e -> (split, e))
        (Fstatus.partition_events ~parts:[ majority spec; minority spec ])
      @ List.map (fun e -> (heal, e)) (Fstatus.heal_events ~procs)

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)

let wall () = Unix.gettimeofday ()

(* User + system time of every domain (getrusage), in microsecond steps. *)
let process_cpu = Sys.time

type rep = {
  setup_s : float;
  wall_s : float;  (** from entering the backend to [run_on] returning *)
  cpu_s : float;
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
  values : int;
  expected : int;
  delivered : int;
  errors : string list;  (** oracle failures, printed, never dropped *)
  latency : float array;  (** due time -> each brcv *)
  lag : float array;  (** due time -> the submission being handled *)
  outage_s : float;
      (** longest gap between the majority's deliveries from the split on;
          0 without a partition *)
  recovery_s : float;  (** heal -> first delivery in the minority *)
  registry : Metrics.t;
  checks : (string * float) list;  (** check -> seconds it took *)
  digest : Digest.t;  (** of the client trace *)
}

(* Entering the backend ends set-up: the moment the run starts. *)
type entry = { mutable at : float; mutable cpu : float; mutable gc : Gc.stat option }

exception Setup_done

let probe (module B : Iface.BACKEND) ~abort entry : Iface.backend =
  (module struct
    let name = B.name

    let run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed =
      entry.at <- wall ();
      if abort then raise Setup_done;
      entry.gc <- Some (Gc.quick_stat ());
      entry.cpu <- process_cpu ();
      B.run ?metrics ?observe ?stop codec ~procs ~handlers ~init ~inputs
        ~failures ~until ~seed
  end)

let vs_config spec =
  let procs = Proc.all ~n:spec.n in
  match (spec.transport, spec.partition) with
  | Bus, _ -> { Vs_node.procs; p0 = procs; pi = 0.15; mu = 1.0e6; delta = 5.0 }
  | Sim, None -> { Vs_node.procs; p0 = procs; pi = 6.0; mu = 8.0; delta = 1.0 }
  | Sim, Some _ -> { Vs_node.procs; p0 = procs; pi = 8.0; mu = 10.0; delta = 1.0 }

let base_backend spec =
  match spec.transport with
  | Bus -> Gcs_transport.Bus.backend ()
  | Sim -> Gcs_sim.Backend.of_config (Gcs_sim.Engine.default_config ~delta:1.0)

(* The simulator runs to its horizon (virtual time is free); the bus stops
   as soon as the workload has drained. *)
let horizon spec inputs =
  match (spec.transport, spec.load) with
  | Sim, Preload _ -> 500.0
  | Sim, _ -> inputs.span +. 300.0
  | Bus, _ -> inputs.span +. 60.0

type started =
  | Started_vstoto of To_service.config * To_service.run
  | Started_skeen of Skeen.config * (float * Proc.t * Skeen.input) list * Skeen.run

(* Build the inputs and config and call [run_on] through [wrap base]. *)
let start spec ~seed ~wrap ~abort entry =
  let inputs = make_inputs spec ~seed in
  let failures = failures spec inputs in
  let until = horizon spec inputs in
  let backend = probe (wrap (base_backend spec)) ~abort entry in
  let total = List.length inputs.schedule in
  let metrics = Metrics.create () in
  let started =
    match spec.protocol with
    | Vstoto ->
        let window = match spec.transport with Sim -> 2.0 | Bus -> 0.02 in
        let config = To_service.make_config ~batch_window:window (vs_config spec) in
        (* Stop once every processor has reported every value; only the
           bus asks. *)
        let progress = Array.init spec.n (fun _ -> Atomic.make 0) in
        let observe =
          match spec.transport with
          | Sim -> None
          | Bus ->
              Some
                (fun p _pre post ->
                  let r = (To_service.node_app post).Vstoto.nextreport - 1 in
                  Gcs_stdx.Atomicx.store_max progress.(p) r)
        in
        let stop ~now:_ ~outputs:_ =
          Array.for_all (fun a -> Atomic.get a >= total) progress
        in
        let run =
          To_service.run_on ~metrics ?observe ~stop ~backend config
            ~workload:inputs.schedule ~failures ~until ~seed:inputs.backend_seed
        in
        Started_vstoto (config, run)
    | Skeen_ts ->
        let config = Skeen.make_config ~procs:(Proc.all ~n:spec.n) in
        let workload =
          List.map (fun (t, p, v) -> (t, p, Skeen.full_group v)) inputs.schedule
        in
        let expected = Skeen.expected_deliveries config workload in
        (* One Bcast and one Brcv per destination per submission. *)
        let stop ~now:_ ~outputs = outputs >= total + expected in
        let run =
          Skeen.run_on ~metrics ~stop ~backend config ~workload ~failures ~until
            ~seed:inputs.backend_seed
        in
        Started_skeen (config, workload, run)
  in
  (inputs, metrics, started)

let fresh_entry () = { at = nan; cpu = nan; gc = None }

(* Set-up alone: build the inputs and config, enter the backend, stop. *)
let setup_only spec ~seed =
  let entry = fresh_entry () in
  let t0 = wall () in
  (try ignore (start spec ~seed ~wrap:Fun.id ~abort:true entry)
   with Setup_done -> ());
  entry.at -. t0

let timed f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

let result_error pp = function
  | Ok () -> None
  | Error e -> Some (Format.asprintf "%a" pp e)

(* Longest stretch without a delivery at any of [procs], from [from] on:
   the first gap runs from [from] (or the last delivery before it) to the
   first delivery after it. *)
let longest_gap ~from ~procs brcvs =
  let times =
    List.filter_map
      (fun (t, dst) -> if List.mem dst procs then Some t else None)
      brcvs
  in
  let start =
    match List.filter (fun t -> t < from) times with
    | [] -> from
    | before -> List.fold_left Float.max neg_infinity before
  in
  let after = List.filter (fun t -> t >= from) times in
  let _, gap =
    List.fold_left
      (fun (prev, gap) t -> (t, Float.max gap (t -. prev)))
      (start, 0.0) after
  in
  gap

let finish spec ~t0 ~entry (inputs, metrics, started) ~t_exit ~cpu_exit ~gc_exit =
  let gc_entry = Option.get entry.gc in
  let due = Hashtbl.create (List.length inputs.schedule) in
  List.iter (fun (t, _, v) -> Hashtbl.replace due v t) inputs.schedule;
  let client_trace, expected, checks =
    match started with
    | Started_vstoto (config, run) ->
        let trace = To_service.client_trace run in
        let to_err, to_s =
          timed (fun () ->
              result_error To_trace_checker.pp_error
                (To_service.to_conforms config run))
        in
        let vs_err, vs_s =
          timed (fun () ->
              result_error Vs_trace_checker.pp_error
                (To_service.vs_conforms config run))
        in
        ( trace,
          spec.n * List.length inputs.schedule,
          [ ("to_conforms", to_s, to_err); ("vs_conforms", vs_s, vs_err) ] )
    | Started_skeen (config, workload, run) ->
        let (order_err, complete_err), s =
          timed (fun () ->
              ( Result.fold ~ok:(fun () -> None) ~error:Option.some
                  (Skeen.check_group_order config ~workload run.Skeen.trace),
                Result.fold ~ok:(fun () -> None) ~error:Option.some
                  (Skeen.check_complete config ~workload run.Skeen.trace) ))
        in
        let err = match order_err with None -> complete_err | some -> some in
        ( run.Skeen.trace,
          Skeen.expected_deliveries config workload,
          [ ("skeen_order", s, err) ] )
  in
  let latency = ref [] and lag = ref [] and brcvs = ref [] in
  List.iter
    (fun (t, action) ->
      match action with
      | To_action.Brcv { dst; value; _ } ->
          brcvs := (t, dst) :: !brcvs;
          Option.iter (fun d -> latency := (t -. d) :: !latency) (Hashtbl.find_opt due value)
      | To_action.Bcast (_, value) ->
          Option.iter (fun d -> lag := (t -. d) :: !lag) (Hashtbl.find_opt due value)
      | _ -> ())
    (Timed.actions client_trace);
  let brcvs = List.rev !brcvs in
  let outage_s, recovery_s =
    match fault_times spec inputs with
    | Some (split, heal) ->
        let recovered =
          List.find_opt
            (fun (t, dst) -> t >= heal && List.mem dst (minority spec))
            brcvs
        in
        ( longest_gap ~from:split ~procs:(majority spec) brcvs,
          match recovered with Some (t, _) -> t -. heal | None -> infinity )
    | None -> (0.0, 0.0)
  in
  let delivered = List.length brcvs in
  let errors =
    List.filter_map (fun (name, _, e) -> Option.map (fun e -> name ^ ": " ^ e) e) checks
  in
  {
    setup_s = entry.at -. t0;
    wall_s = t_exit -. entry.at;
    cpu_s = cpu_exit -. entry.cpu;
    alloc_words =
      gc_exit.Gc.minor_words +. gc_exit.Gc.major_words -. gc_exit.Gc.promoted_words
      -. (gc_entry.Gc.minor_words +. gc_entry.Gc.major_words -. gc_entry.Gc.promoted_words);
    minor_collections = gc_exit.Gc.minor_collections - gc_entry.Gc.minor_collections;
    major_collections = gc_exit.Gc.major_collections - gc_entry.Gc.major_collections;
    values = List.length inputs.schedule;
    expected;
    delivered;
    errors;
    latency = Array.of_list !latency;
    lag = Array.of_list !lag;
    outage_s;
    recovery_s;
    registry = metrics;
    checks = List.map (fun (name, s, _) -> (name, s)) checks;
    digest = Digest.string (Marshal.to_string client_trace []);
  }

let run_rep spec ~seed ~wrap =
  let entry = fresh_entry () in
  let t0 = wall () in
  let started = start spec ~seed ~wrap ~abort:false entry in
  let t_exit = wall () in
  let cpu_exit = process_cpu () in
  let gc_exit = Gc.quick_stat () in
  finish spec ~t0 ~entry started ~t_exit ~cpu_exit ~gc_exit
