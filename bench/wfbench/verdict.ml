(* Comparing two sets of one benchmark: one row per workload and
   end-to-end metric, judged against the metric's bound from
   BENCHMARK.json. *)

type t = Improved | Unchanged | Regressed | Unresolved

let to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type side = { value : float; q1 : float; q3 : float; samples : float array }

(* Interquartile range as a share of the value. *)
let spread s = if s.value = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.value

(* Relative change of [value] toward better: positive is a gain. *)
let gain ~better old_ new_ =
  let d = (new_.value -. old_.value) /. Float.abs old_.value in
  match better with Run.Lower -> -.d | Run.Higher -> d

let beats ~better a b = match better with Run.Lower -> a < b | Run.Higher -> a > b

(* Every sample of [a] better than every sample of [b]. *)
let dominates ~better a b =
  Array.for_all (fun x -> Array.for_all (fun y -> beats ~better x y) b.samples) a.samples

(* A change beyond the bound counts only when both sets are tighter than
   the bound; with a wider spread the row is unresolved, unless every
   sample of one set beats every sample of the other. *)
let judge ~better ~bound old_ new_ =
  let g = gain ~better old_ new_ in
  if Float.max (spread old_) (spread new_) <= bound then
    if g < -.bound then Regressed else if g > bound then Improved else Unchanged
  else if dominates ~better new_ old_ then if g > bound then Improved else Unchanged
  else if dominates ~better old_ new_ && g < -.bound then Regressed
  else Unresolved
