(** Regeneration of Figure 3 and the laws of Example 8.

    Figure 3 tabulates six temporal formulas against the four
    (trace, index) points over the one-symbol alphabet [{e}]; the bench
    harness prints it. *)

type t = {
  row_labels : string list;
  col_labels : string list;
  cells : bool array array; (* cells.(row).(col) *)
}

val figure3 : unit -> t
(** The exact table of Figure 3: rows [¬e, □e, ◇e, ¬ē, □ē, ◇ē]; columns
    [⟨e⟩,0], [⟨e⟩,1], [⟨ē⟩,0], [⟨ē⟩,1]. *)

val example8_laws : unit -> (string * bool) list
(** The six results (a)–(f) of Example 8, each paired with whether it
    holds under our semantics (all should be [true]):
    (a) [□e + □ē ≠ ⊤]; (b) [◇e + ◇ē = ⊤]; (c) [◇e | ◇ē = 0];
    (d) [◇e + □ē ≠ ⊤]; (e) [¬e] is the boolean complement of [□e];
    (f) [¬e + □ē = ¬e]. *)

val render : t -> string
(** ASCII rendering with ✓ marks, in the style of the figure. *)
