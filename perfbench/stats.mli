(** Order statistics for the benchmark's reports.

    A timing is reported as its median and the highest percentile that
    has at least {!min_beyond} samples above it, with the sample count.
    Percentiles use the nearest-rank rule on the sorted samples. *)

val min_beyond : int
(** 10: a tail percentile is reported only when at least this many
    samples lie beyond it. *)

type summary = {
  count : int;
  p50 : float;
  tail : (float * float) option;
      (** (percentile in (0, 1), value): the highest of 0.999, 0.99, 0.95
          and 0.9 with at least {!min_beyond} samples beyond it *)
}

val summarize : float array -> summary option
(** [None] on no samples. The input is not modified. *)

val percentile : float array -> float -> float option
(** [percentile samples q] is the nearest-rank [q]-quantile, refused
    ([None]) unless at least {!min_beyond} samples lie beyond it. *)

val median : float list -> float
(** Median of a nonempty list (mean of the two middle values when the
    length is even), for combining per-repetition figures. *)
