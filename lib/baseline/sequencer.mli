open Gcs_core

(** Baseline: fixed-sequencer totally ordered broadcast.

    Every submission is forwarded to a distinguished sequencer (processor
    0), which assigns consecutive sequence numbers and broadcasts; each
    node delivers in sequence-number order. In a well-behaved network this
    is the latency floor (2 hops + reorder buffering), but it is not
    partition-tolerant: nodes cut off from the sequencer stall, and there
    is no reconciliation — exactly the design point the paper's
    partitionable service improves on. *)

type config = { procs : Proc.t list; sequencer : Proc.t }

val make_config : procs:Proc.t list -> config
(** Sequencer defaults to the smallest processor id. *)

type run = {
  trace : Value.t To_action.t Timed.t;
  packets_sent : int;
  packets_dropped : int;
}

val run :
  ?engine:Gcs_sim.Engine.config ->
  delta:float ->
  config ->
  workload:(float * Proc.t * Value.t) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run

type packet =
  | Request of { origin : Proc.t; value : Value.t }
  | Ordered of { seq : int; origin : Proc.t; value : Value.t }

(** Over the shared binary framing ({!Gcs_impl.Wire.Enc}): tag
    [Request] 0, [Ordered] 1, then the fields in declaration order. *)

val encode_packet : packet -> string

val decode_packet : string -> (packet, string) result
(** Total: any input yields [Ok] or [Error], never an exception. *)

val packet_codec : packet Gcs_transport.Iface.codec

val run_on :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?stop:(now:float -> outputs:int -> bool) ->
  backend:Gcs_transport.Iface.backend ->
  config ->
  workload:(float * Proc.t * Value.t) list ->
  failures:(float * Fstatus.event) list ->
  until:float ->
  seed:int ->
  run
(** The baseline on a pluggable transport via {!packet_codec}, for
    wall-clock bench comparisons against the partitionable stacks. *)

val to_conforms : config -> run -> (unit, To_trace_checker.error) result
val deliveries : run -> int
