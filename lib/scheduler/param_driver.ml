open Wf_core
open Wf_tasks

type result = {
  trace : Trace.t;
  attempts : int;
  parked_final : Symbol.t list;
  finished : bool;
}

let run ?(seed = 42L) ?(max_steps = 100_000) ?crash_every ?tracer ?flow
    ?(engine = (module Param_sched : Param_engine.S)) ~templates wf =
  let module E = (val engine) in
  let e = ref (E.create ?flow templates) in
  E.set_tracer !e tracer;
  let rng = Wf_sim.Rng.create seed in
  let agents =
    List.map
      (fun (task : Workflow_def.task) ->
        Agent.create ~instance:task.Workflow_def.instance
          ~model:task.Workflow_def.model ~script:task.Workflow_def.script
          ~parametrize:task.Workflow_def.parametrize ())
      wf.Workflow_def.tasks
  in
  let attempts = ref 0 in
  let last_crash = ref 0 in
  let steps = ref 0 in
  let stalled = ref 0 in
  (* Agents whose last attempt was shed ([Busy]): the engine never saw
     it, so the driver re-submits when the agent is next picked (the
     step loop has no clock; the admission controller's probe admission
     guarantees the retry eventually lands). *)
  let busy : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  (* One attempt; the trace grows exactly when it is [Accepted] (the
     accept plus any parked retries it releases), so that is the
     driver's progress signal. *)
  let attempt agent sym =
    incr attempts;
    let outcome = E.attempt !e sym in
    (match outcome with
    | Accepted | Already ->
        Hashtbl.remove busy (Agent.instance agent);
        ignore (Agent.on_accepted agent sym)
    | Parked -> Hashtbl.remove busy (Agent.instance agent)
    | Rejected ->
        Hashtbl.remove busy (Agent.instance agent);
        Agent.on_rejected agent sym
    | Busy _ -> Hashtbl.replace busy (Agent.instance agent) ());
    outcome = Accepted
  in
  let progress () = List.exists (fun a -> not (Agent.finished a)) agents in
  while progress () && !steps < max_steps && !stalled < 10_000 do
    incr steps;
    let live = List.filter (fun a -> not (Agent.finished a)) agents in
    let accepted =
      live <> []
      &&
      let agent = Wf_sim.Rng.pick rng live in
      match Agent.want agent with
      | None -> (
          (* Awaiting a parked decision: poke the engine. *)
          match Agent.awaiting agent with
          | Some sym when E.decided !e sym ->
              ignore (Agent.on_accepted agent sym);
              false
          | Some sym when Hashtbl.mem busy (Agent.instance agent) ->
              attempt agent sym
          | _ -> false)
      | Some (sym, _) ->
          Agent.begin_attempt agent sym;
          attempt agent sym
    in
    (* Simulated engine crash: throw the in-memory engine away and
       rebuild it from its journal (checkpoint + replay), which keeps
       the trace.  Agents model durable tasks and keep their state. *)
    (match crash_every with
    | Some k when k > 0 && !attempts >= !last_crash + k ->
        last_crash := !attempts;
        e := E.recover !e
    | _ -> ());
    if accepted then stalled := 0 else incr stalled
  done;
  {
    trace = E.trace !e;
    attempts = !attempts;
    parked_final = E.parked !e;
    finished = List.for_all Agent.finished agents;
  }
