open Wf_core
(** Workflow definitions: tasks, placements, dependencies, attributes.

    A workflow is a set of dependencies (Section 3.1) over the
    significant events of a set of task instances, each hosted at a site
    of the distributed environment.  Attribute overrides let a
    specification mark, e.g., a subtask's [start] as triggerable so the
    scheduler may initiate it (Example 4). *)

type task = {
  instance : string;
  model : Task_model.t;
  site : int;
  script : Agent.script;
  parametrize : bool;
}

type t = {
  name : string;
  tasks : task list;
  deps : (string * Expr.t) list;
  overrides : (Symbol.t * Attribute.t) list;
}

val make :
  name:string ->
  tasks:task list ->
  deps:(string * Expr.t) list ->
  ?overrides:(Symbol.t * Attribute.t) list ->
  unit ->
  t

val task :
  instance:string ->
  model:Task_model.t ->
  ?site:int ->
  ?script:Agent.script ->
  ?parametrize:bool ->
  unit ->
  task

val dependencies : t -> Expr.t list
val owner_of : t -> Symbol.t -> task option
(** The task whose significant events include the symbol (matching on
    the base name, so parametrized occurrences resolve to their task). *)

val attribute_of : t -> Symbol.t -> Attribute.t
(** Override if present, else the owning model's attribute, else
    default. *)

val site_of : t -> Symbol.t -> int
(** Site of the owning task; site 0 for unowned symbols. *)

val num_sites : t -> int

val validate : t -> (unit, string) result
(** Every dependency symbol is either owned by a task or overridden;
    task instances are unique. *)
