(* The splitmix state lives unboxed in 8 bytes.  A mutable [int64]
   field would hold a boxed value, so every step would allocate the new
   state and, with the compiler unable to inline across modules, the
   returned draw as well; reading and writing the bytes keeps the state
   in a register, and the draws below take their bits from [step]
   inlined into them, so only [next_int64] boxes its result. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* Advance the state and return the mixed output. *)
let[@inline always] step t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = step t

(* Splitmix's outputs are well mixed, so seeding a child generator from
   one draw yields a stream that shares no prefix with the parent's —
   unlike [base_seed + i] schemes, whose streams are shifted copies of
   one another. *)
let split t = create (step t)

(* 53 random bits to [0,1). *)
let[@inline always] unit_float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0

let float t bound = unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: draw 63 uniform bits and reject draws at or
     above the largest multiple of [bound], so [rem] carries no modulo
     bias.  The rejection probability is < bound / 2^63. *)
  let b = Int64.of_int bound in
  let limit = Int64.mul (Int64.div Int64.max_int b) b in
  let x = ref (Int64.shift_right_logical (step t) 1) in
  while Int64.compare !x limit >= 0 do
    x := Int64.shift_right_logical (step t) 1
  done;
  Int64.to_int (Int64.rem !x b)

let bool t = Int64.logand (step t) 1L = 1L

let exponential t ~mean =
  let u = unit_float t in
  -.mean *. log (1.0 -. u)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))
