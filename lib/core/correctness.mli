(** Generation and the soundness/completeness theorem (Section 4.4).

    Definition 4: a workflow [W] {e generates} a maximal trace [u] iff at
    every step the next event's guard (due to every dependency) holds at
    the current index.  Theorem 6: [W] generates [u] iff [u] satisfies
    every dependency of [W].  These checkers power the property tests
    and the end-of-run verification of both schedulers. *)

val generates : Expr.t list -> Trace.t -> bool
(** Definition 4, with guards computed by {!Synth.guard}. *)

val violations : Expr.t list -> Trace.t -> Expr.t list
(** The dependencies the trace fails to satisfy (diagnostics). *)

(** {2 Test hooks} *)

module For_testing : sig
  val theorem6_holds : Expr.t list -> Symbol.Set.t -> bool
  (** Theorem 6: [generates u] iff [u] satisfies every dependency, over
      every maximal trace of the alphabet. *)
end
