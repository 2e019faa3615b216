open Wf_core

type outcome =
  | Accepted
  | Parked
  | Rejected
  | Already
  | Busy of { retry_after : float }

(* Template synthesis runs once per dependency skeleton.  Both engines
   read this one list, in dependency order then atom order, so a
   binding's first matching positive template (whose instance guard id
   a trace record carries) is the same in either. *)
let synthesize deps =
  List.concat
    (List.mapi
       (fun i dep ->
         let skel = Ptemplate.skeleton dep in
         List.map
           (fun (a : Ptemplate.atom) ->
             let lit : Literal.t =
               {
                 Literal.sym = Ptemplate.symbol_of_atom Ptemplate.var_marker a;
                 pol = a.Ptemplate.pol;
               }
             in
             (i, a, Synth.guard skel lit))
           (Ptemplate.atoms dep))
       deps)

let combine a b =
  match (a, b) with
  | Knowledge.False, _ | _, Knowledge.False -> Knowledge.False
  | Knowledge.True, Knowledge.True -> Knowledge.True
  | _ -> Knowledge.Unknown

let is_marker arg = String.length arg > 1 && arg.[0] = '?'
let fresh_marker = "*"

(* --- journaled inputs ---------------------------------------------------- *)

(* The engine's evolution is a deterministic function of the
   attempt/occurrence sequence, so a write-ahead log of inputs plus
   periodic snapshots reconstructs it exactly after a crash (templates
   are re-synthesized from the dependency list, not journaled). *)
type input = Attempt of Symbol.t | Occurred of Literal.t

module B = Wf_store.Binio

let input_codec =
  B.union B.uint
    [
      B.case 0 Wire.symbol
        (fun sym -> Attempt sym)
        (function Attempt sym -> Some sym | Occurred _ -> None);
      B.case 1 Wire.literal
        (fun lit -> Occurred lit)
        (function Occurred lit -> Some lit | Attempt _ -> None);
    ]

(* --- engine cores -------------------------------------------------------- *)

type env = {
  tracer : Wf_obs.Trace.sink option ref;
  tick : int ref;
  fstats : Wf_obs.Metrics.t;
  mutable work : int;
}

let tracing env = Option.is_some !(env.tracer)

let emit_assim env sym ~guard outcome =
  match !(env.tracer) with
  | None -> ()
  | Some sink ->
      Wf_obs.Trace.emit sink
        (Wf_obs.Trace.make
           ~time:(float_of_int !(env.tick))
           ~site:0 ~actor:(Symbol.name sym)
           (Wf_obs.Trace.Assim { outcome; guard }))

module type CORE = sig
  type t
  type snapshot

  val checkpoint_every : int

  val create :
    env -> Ptemplate.t list -> (int * Ptemplate.atom * Guard.t) list -> t

  val apply_attempt : t -> Symbol.t -> outcome
  val apply_occurred : t -> Literal.t -> unit
  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
  val snapshot_codec : snapshot Wf_store.Binio.t
  val carry : from:t -> t -> unit
  val equal_state : t -> t -> bool
  val parked : t -> Symbol.t list
  val parked_count : t -> int
  val decided : t -> Symbol.t -> bool
  val trace : t -> Trace.t
  val knowledge : t -> Knowledge.t
end

module type S = sig
  type t

  val create :
    ?checkpoint_every:int ->
    ?store:Wf_store.Media.Sim.fault_config ->
    ?store_seed:int64 ->
    ?flow:Flow.config ->
    Ptemplate.t list ->
    t

  val set_tracer : t -> Wf_obs.Trace.sink option -> unit
  val attempt : t -> Symbol.t -> outcome
  val occurred : t -> Literal.t -> unit
  val parked : t -> Symbol.t list
  val parked_count : t -> int
  val decided : t -> Symbol.t -> bool
  val trace : t -> Trace.t
  val knowledge : t -> Knowledge.t
  val guard_templates : t -> (int * Ptemplate.atom * Guard.t) list
  val stats : t -> Wf_obs.Metrics.t
  val work : t -> int
  val recover : t -> t
  val last_salvage : t -> Wf_store.Log.salvage_report option
  val equal_state : t -> t -> bool
end

(* --- the shell ----------------------------------------------------------- *)

(* A functor, not a record of closures: the build has no flambda, so a
   closure such as [~apply:(apply_attempt core)] would be allocated on
   every input of a sub-microsecond call, while a functor argument costs
   one indirect call and allocates nothing. *)
module Make (C : CORE) = struct
  type t = {
    deps : Ptemplate.t list;
    templates : (int * Ptemplate.atom * Guard.t) list;
    core : C.t;
    env : env;
    journal : (input, C.snapshot) Wf_store.Journal.t;
    flow : Flow.t option;
        (* admission control over the parked backlog; [None] = every
           attempt admitted *)
  }

  let codec = Wf_store.Log.binio_codec input_codec C.snapshot_codec

  let make env ~journal ~flow deps =
    let templates = synthesize deps in
    { deps; templates; core = C.create env deps templates; env; journal; flow }

  let create ?(checkpoint_every = C.checkpoint_every) ?store
      ?(store_seed = 1L) ?flow deps =
    let env =
      {
        tracer = ref None;
        tick = ref 0;
        fstats = Wf_obs.Metrics.create ();
        work = 0;
      }
    in
    let store =
      Option.map
        (fun faults ->
          ( codec,
            Wf_store.Media.Sim.create ~faults ~seed:store_seed
              ~stats:env.fstats
              ~tracer:(fun () -> !(env.tracer))
              ~clock:(fun () -> float_of_int !(env.tick))
              () ))
        store
    in
    let journal = Wf_store.Journal.create ~checkpoint_every ?store () in
    let flow =
      Option.map
        (fun config ->
          Flow.create ~config ~num_sites:1
            ~seed:(Int64.logxor store_seed 0x466C4F57L)
            ~stats:env.fstats
            ~now:(fun () -> float_of_int !(env.tick))
            ~tracer:(fun () -> !(env.tracer))
            ())
        flow
    in
    make env ~journal ~flow deps

  let core t = t.core
  let set_tracer t sink = t.env.tracer := sink

  let maybe_checkpoint t =
    if Wf_store.Journal.wants_checkpoint t.journal then
      Wf_store.Journal.checkpoint t.journal (C.snapshot t.core)

  (* A shed attempt is refused before it is journaled: it is not an
     input, so replay after a crash sees exactly the admitted sequence. *)
  let attempt t sym =
    match
      match t.flow with
      | None -> Flow.Admitted
      | Some fl ->
          Flow.admit fl ~site:0 ~actor:sym
            ~depth:(C.parked_count t.core)
            ~first:(float_of_int !(t.env.tick))
            ()
    with
    | Flow.Busy { retry_after } -> Busy { retry_after }
    | Flow.Admitted ->
        Wf_store.Journal.append t.journal (Attempt sym);
        incr t.env.tick;
        let out = C.apply_attempt t.core sym in
        maybe_checkpoint t;
        out

  let occurred t lit =
    Wf_store.Journal.append t.journal (Occurred lit);
    incr t.env.tick;
    C.apply_occurred t.core lit;
    maybe_checkpoint t

  let recover t =
    (* Over a medium, the crash salvages the journal — the in-memory
       mirror is volatile and died with the engine. *)
    Wf_store.Journal.crash t.journal;
    (* The shared [tracer] and [tick] refs (and the flow controller whose
       closures capture them) carry over, so the fresh engine keeps the
       sink, the logical clock, and the admission state. *)
    let fresh =
      make { t.env with work = t.env.work } ~journal:t.journal ~flow:t.flow
        t.deps
    in
    C.carry ~from:t.core fresh.core;
    (* replay is silent: the shared sink is unhooked for its duration,
       so re-applied inputs do not re-emit decisions the pre-crash
       engine traced *)
    let saved = !(t.env.tracer) in
    t.env.tracer := None;
    let ckpt, suffix = Wf_store.Journal.recover t.journal in
    Option.iter (C.restore fresh.core) ckpt;
    List.iter
      (function
        | Attempt sym -> ignore (C.apply_attempt fresh.core sym)
        | Occurred lit -> C.apply_occurred fresh.core lit)
      suffix;
    t.env.tracer := saved;
    fresh

  let parked t = C.parked t.core
  let parked_count t = C.parked_count t.core
  let decided t sym = C.decided t.core sym
  let trace t = C.trace t.core
  let knowledge t = C.knowledge t.core
  let equal_state a b = C.equal_state a.core b.core
  let guard_templates t = t.templates
  let stats t = t.env.fstats
  let work t = t.env.work
  let last_salvage t = Wf_store.Journal.last_salvage t.journal
end

module For_testing = struct
  let input_codec = input_codec
end
