open Wf_core
open Wf_tasks

(** Elaboration: from parsed specifications to executable workflows.

    Resolves task-model names, builds agent scripts, expands Klein
    macros and catalog invocations into algebra expressions, and
    separates ground dependencies (scheduled by {!Wf_scheduler} over
    {!Workflow_def}) from parametrized templates (Section 5, scheduled
    by the parametrized engine). *)

type result = {
  def : Workflow_def.t;  (** tasks, ground dependencies, overrides *)
  templates : (string * Ptemplate.t) list;
      (** dependencies mentioning variables *)
}

exception Error of string

val expr_of_ast : Ast.expr -> (Expr.t, Ptemplate.t) Either.t
(** Ground expressions stay in the algebra; an expression with variables
    becomes a template. *)

val load_file : string -> result
(** Parse and elaborate a [.wf] file. *)

val load_string : string -> result
