(** An observing wrapper around an {!Gcs_transport.Iface.BACKEND}.

    [wrap] returns a backend that runs the given one with every
    [handlers.on_input/on_packet/on_timer] call and every [codec.enc/dec]
    call timed (wall clock) and charged with the minor-heap words it
    allocated, on the domain where the call runs. It never changes an
    argument or a result, so a deterministic run gives the same trace with
    or without it.

    Each domain writes only its own buffer (found through domain-local
    storage); the buffers are merged after the run, when every domain the
    backend spawned has been joined. Spans are kept in memory and written
    once, as Chrome Trace Event JSON, by {!write_chrome}. *)

type call = On_input | On_packet | On_timer | Enc | Dec

val call_name : call -> string
val calls : call list

type t

val create : ?gc:Gc_events.t -> unit -> t
(** A fresh recorder for one run. [gc], when given, is polled from the
    main domain while the run goes (inside [stop] and every few spans) so
    its ring does not wrap. *)

val wrap : t -> Gcs_transport.Iface.backend -> Gcs_transport.Iface.backend
(** Use the result for one run only. *)

(** {2 After the run} *)

type site = { calls : int; busy_s : float; words : float }

val site : t -> call -> site
(** Totals over every domain. *)

val encoded_bytes : t -> int
(** Total length of the strings [codec.enc] returned. *)

val run_wall_s : t -> float
(** Wall time spent inside the wrapped backend's [run]. *)

val run_cpu_s : t -> float
(** Process CPU (user + system, every domain) over the same interval. *)

val domain_busy : t -> (int * float) list
(** Attributed busy seconds per domain that made at least one call. *)

val write_chrome :
  t -> run:string -> name:(call -> string) -> out_channel -> unit
(** The run as one complete ("X") event named [run] on the calling domain,
    and every span as one complete event named [name call] whose [tid] is
    the domain that made the call and whose [args.run] names the run that
    caused it. *)
