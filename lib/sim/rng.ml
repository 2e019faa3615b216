type t = { mutable state : int64 }

let create seed = { state = seed }
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Splitmix's outputs are well mixed, so seeding a child generator from
   one draw yields a stream that shares no prefix with the parent's —
   unlike [base_seed + i] schemes, whose streams are shifted copies of
   one another. *)
let split t = create (next_int64 t)

let float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  (* 53 random bits to [0,1). *)
  Int64.to_float bits /. 9007199254740992.0 *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: draw 63 uniform bits and reject draws at or
     above the largest multiple of [bound], so [rem] carries no modulo
     bias.  The rejection probability is < bound / 2^63. *)
  let b = Int64.of_int bound in
  let limit = Int64.mul (Int64.div Int64.max_int b) b in
  let rec draw () =
    let x = Int64.shift_right_logical (next_int64 t) 1 in
    if x < limit then Int64.to_int (Int64.rem x b) else draw ()
  in
  draw ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
