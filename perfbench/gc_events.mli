(** Stop-the-world GC pause time, read from the process's own
    [runtime_events] ring (the library shipped with OCaml 5).

    The ring is written by every domain; [poll] must be called from one
    domain at a time (the benchmark polls from the main domain only). *)

type t

val create : unit -> t
(** Start event collection for the process (idempotent) and open a cursor
    on its own ring. Collection starts paused: see {!resume}. *)

val resume : t -> unit
(** Drain stale events, then collect from now on. *)

val pause : t -> unit
(** Drain pending events and stop collecting. *)

val poll : t -> unit
(** Consume the events written so far. Call often enough that a ring does
    not wrap; wrapped-over events are counted in {!lost}. *)

val pause_s : t -> float
(** Seconds spent in minor collections since {!resume}, taken on the ring
    with the largest total: a minor collection stops every domain, so the
    ring that took part in all of them (the main domain's) carries the
    pause every domain saw. *)

val lost : t -> int
