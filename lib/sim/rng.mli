(** Deterministic splitmix64 random number generator.

    All simulation randomness flows from explicitly seeded instances, so
    every run (and thus every bench row and test) is reproducible. *)

type t

val create : int64 -> t
val split : t -> t
(** An independent child generator seeded from one draw of the parent.
    Splitmix's output mixing makes the child's stream statistically
    unrelated to the parent's remaining stream, so suites can derive
    per-configuration seed streams that do not overlap (unlike
    [base_seed + i], which yields shifted copies of one stream). *)

val next_int64 : t -> int64
val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound > 0].  Uses rejection
    sampling, so the distribution is exactly uniform (no modulo bias). *)

val bool : t -> bool
val exponential : t -> mean:float -> float
(** Exponentially distributed, for inter-arrival and latency jitter. *)

val pick : t -> 'a list -> 'a
(** Uniform choice; raises [Invalid_argument] on empty list. *)
