(** The host's current speed, measured with a fixed reference job.

    On a shared host the speed of this process drifts by up to 1.5x over
    seconds to minutes, as other tenants load the cores and caches it
    shares, and every timing of the program drifts with it. The reference
    job is independent of the program (standard library only: sort a list
    of integers and build a map keyed by strings), allocates and chases
    pointers through a heap of megabytes as the program does, and always
    does the same work, so its CPU time tracks the host's speed alone. A
    job a third this size tracked the simulator's repetitions half as
    well. *)

val nominal_s : float
(** 0.08: the CPU seconds of one {!cpu_s} on the host timings are scaled
    to, about what the job takes on a quiet host. *)

val cpu_s : unit -> float
(** Run the job once, after a full collection, and return its CPU time
    (getrusage, microsecond steps). *)

val slowdown : before:float -> after:float -> float
(** [(before +. after) /. 2.0 /. nominal_s]: how much slower than nominal
    the host ran work timed between two runs of the job. Dividing a CPU
    time by it gives the time on the nominal host. *)
