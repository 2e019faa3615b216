open Wf_core

(** Exhaustive interleaving model checker with sleep sets over static
    coupling classes, with fingerprint state dedup.

    Where the conformance suites sample schedules (one per seed), [Mc]
    enumerates the schedules of a spec's runs on its universe — plus,
    behind {!check}'s [crash_depth] bound, every placement of crash
    transitions — and checks every maximal run against the symbolic
    oracle ({!Wf_core.Semantics}, {!Wf_core.Correctness}).

    {2 The explored system}

    A run is the code the simulator runs: {!Wf_scheduler.Event_sched}'s
    build — actors, agents, journals, the reliable channel and its
    restart hook — over a {!Wf_sim.Netsim} in controlled mode on the
    fault-free network, whose links are exactly-once.  Nothing happens
    until the checker chooses it: a transition delivers the oldest
    message of one (sending actor, receiving actor) lane through the
    channel and the site handler, or lets one agent's pending arrival
    make its attempt.  A crash is one step through the network's
    restart path ({!Wf_sim.Netsim.crash_restart}): the channel bumps the
    site's epoch and says Hello, then each hosted actor's journal
    crashes, the actor recovers from it, and the recovery handshake
    sends its messages; the Hellos are delivered within the step.
    Nothing is delivered or dropped in between, which is why the step
    is sound on exactly-once links.  A maximal run is closed by
    {!Wf_scheduler.Ground.close}, the close every simulated run ends
    with, under a deterministic chooser (attempts by instance, then
    deliveries by pair).

    {2 What is covered}

    The model is per-pair FIFO over the real transport.  The simulator's
    fault-free network is FIFO per site link, so co-hosted actors'
    messages on one link arrive in send order there, while the checker
    also explores their reorderings: every fault-free simulator
    schedule is among the explored ones.  Under [--reorder-rate] the
    network is still exactly-once but may reorder messages within a
    pair, and those orders are covered by sampling only.  Neither
    alternative model fits: any order within a pair explodes (travel
    did not finish within 5M states), and per-site-link FIFO explores
    fewer schedules than per-pair FIFO.  Drops, duplicates, retransmit
    timers and crash windows are not explored either: the channel's
    lossy path is covered by the fault sweeps.

    {2 Search}

    The search is stateless: a state is reached by replaying its
    schedule on a fresh build (the run is deterministic), and states are
    deduplicated by a fingerprint over the actors, agents, decided
    flags, occurrences, rejections and violation counters, the ready
    lanes and pending arrivals, and the channel's epochs.

    {2 Reduction}

    Transitions commute when their footprints are disjoint.  Footprints
    are {e coupling classes}: the union-find closure of "appears in the
    same dependency or belongs to the same task" over the spec's
    symbols.  A transition's class set covers everything it can read or
    write — an attempt touches its task's class (guards of a task's
    events only mention symbols of dependencies that mention the task),
    a delivery touches the classes of its endpoints and payload, a
    crash touches the classes of the site's hosted symbols.  Swapping
    two adjacent transitions with disjoint footprints can relabel
    global sequence numbers, but leaves every per-dependency projection
    of the realized trace — and hence every verdict the oracle computes
    — unchanged, so pruning one of the two orders never hides a
    divergence.  The commutation property test and the naive-vs-reduced
    per-dependency-projection comparison in the suite validate this
    empirically.

    The DFS prunes with {e sleep sets} (a transition proven independent
    of everything explored since it was last available is not re-fired)
    and dedups states by fingerprint; a visited state is re-explored
    only when reached with a strictly smaller sleep set, the standard
    guard against the sleep-set / state-caching interaction
    (Flanagan and Godefroid, {e Dynamic Partial-Order Reduction}, POPL
    2005). *)

(** A transition of the explored system. *)
module Tkey : sig
  type t =
    | Attempt of string  (** the instance's pending arrival makes its attempt *)
    | Deliver of Symbol.t * Symbol.t
        (** the oldest message of the lane, sender → receiver *)
    | Crash of int  (** crash and restart the site in one step *)
    | Torn of int
        (** a crash preceded by a torn-write probe on every hosted
            journal: the journal's content is re-serialized through
            {!Wf_scheduler.Actor.codec} onto a fresh simulated medium,
            synced, and an in-flight entry's frame is torn at several
            byte offsets; the salvage must keep the synced frames and
            rebuild the state journal recovery rebuilds *)

  val to_string : t -> string

  module Set : Set.S with type elt = t

  (** {2 Test hooks} *)

  module For_testing : sig
    val compare : t -> t -> int
    (** The order {!Set} and the search's tie-breaks use. *)
  end
end

type divergence = {
  d_kind : string;
      (** ["ill-formed"], ["not-maximal"], ["violation"], ["generates"],
          ["denotation"], ["forced"], ["uncontrollable"], ["store"] (a
          torn-write placement whose salvage diverged from journal
          recovery), or ["delivery"] (a delivery that did not hand its
          message to the addressed actor exactly once) *)
  d_detail : string;
  d_schedule : Tkey.t list;  (** the interleaving that exposed it *)
  d_trace : Literal.t list;  (** the closed trace it realized *)
}

type report = {
  r_spec : string;
  r_mode : string;  (** ["dpor"] or ["naive"] *)
  r_states : int;  (** states entered (dedup hits included) *)
  r_transitions : int;  (** transitions executed *)
  r_traces : int;  (** maximal interleavings closed and checked *)
  r_dedup_hits : int;
  r_sleep_skips : int;
  r_max_depth : int;
  r_complete : bool;  (** false iff the [max_states] bound was hit *)
  r_crash_depth : int;
  r_recoveries : int;  (** actor recoveries across the exploration *)
  r_closed_traces : Literal.t list list;
      (** the distinct closed traces observed, in discovery order.
          Naive and reduced explorations agree on every {e
          per-dependency projection} (and literal set) drawn from these
          traces — that is the verdict-relevant view — but not on the
          sequences themselves: the reduction deliberately prunes
          reorderings of independent events, so the naive set is a
          superset (e.g. 630 vs 25 on [mc_indep.wf]). *)
  r_divergences : divergence list;  (** capped at 16 *)
}

val check :
  ?crash_depth:int ->
  ?torn_writes:bool ->
  ?max_states:int ->
  ?dpor:bool ->
  ?guard_overrides:(Literal.t * Guard.t) list ->
  ?spec_name:string ->
  Wf_tasks.Workflow_def.t ->
  report
(** Exhaustively explore the workflow.  [crash_depth] (default 0)
    bounds the number of crash transitions per interleaving;
    [torn_writes] (default false) additionally places torn-write
    crashes ({!Tkey.Torn}) at every point a plain crash is placed,
    sharing the [crash_depth] budget — each probes that a frame torn
    mid-write salvages back to exactly the journal-recovery state,
    reporting a ["store"] divergence otherwise; every explored delivery
    checks the transport, reporting a ["delivery"] divergence unless the
    addressed actor took the message exactly once; [max_states] (default 500_000) bounds the exploration; [dpor]
    (default true) enables the sleep-set reduction (the name predates
    it; there is no dynamic partial-order reduction yet); [guard_overrides] plants
    wrong guards (via {!Wf_scheduler.Event_sched.build}) so tests can
    watch the checker catch the resulting divergences.  Parametrized
    (looping) tasks are rejected: the checker needs a finite static
    alphabet.  *)

(** {2 Counterexamples}

    A divergence's schedule is exported as {!Wf_obs.Trace} JSONL —
    attempts as [send] records (actor = the instance), deliveries as
    [deliver] records (actor = ["sender>receiver"]), crashes as [crash]
    records (torn-write crashes carry actor ["torn"]) — so
    counterexamples flow through the same tooling as
    simulator traces ({!Wf_obs.Trace.validate_file} accepts them) and
    stay loadable as the schema evolves. *)

val write_counterexample :
  Wf_tasks.Workflow_def.t -> divergence -> string -> unit
(** Write the divergence's schedule to the path, one record per line. *)

val load_schedule : string -> (Tkey.t list, string) result
(** Parse a counterexample file back into a schedule. *)

val replay :
  ?guard_overrides:(Literal.t * Guard.t) list ->
  Wf_tasks.Workflow_def.t ->
  Tkey.t list ->
  (divergence list * Literal.t list, string) result
(** Re-execute a schedule step by step (validating each transition is
    enabled), close the run, and return the divergences of the final
    state plus the realized closed trace.  [Error] if the schedule does
    not apply to the spec. *)

(** {2 Introspection} *)

val coupling_classes : Wf_tasks.Workflow_def.t -> Symbol.t list list
(** The coupling classes of the spec's symbols (each sorted; classes
    sorted by first element) — the independence relation the reduction
    is keyed on, exposed for tests and the CLI's [--classes] view. *)

(** {2 Test hooks}

    The explored system, driven one transition at a time: what the
    search and {!replay} do. *)

module For_testing : sig
  val start :
    ?guard_overrides:(Literal.t * Guard.t) list ->
    Wf_tasks.Workflow_def.t ->
    Wf_scheduler.Ground.t
  (** A fresh run in controlled mode, its agents started. *)

  val moves :
    Wf_scheduler.Ground.t -> (Tkey.t * Wf_scheduler.Messages.t option) list
  (** The attempts and deliveries the run offers, sorted, each delivery
      with the message it delivers. *)

  val perform : Wf_scheduler.Ground.t -> Tkey.t -> unit
  (** Perform one transition ({!Tkey.Torn} as a plain crash).  Raises
      [Invalid_argument] if it is not offered. *)

  val fingerprint : Wf_scheduler.Ground.t -> int
  (** The fingerprint the search deduplicates states by. *)
end
