(* Values are stored as [Obj.t] so a free slot can hold a placeholder of
   no particular type, as in [Wf_sim.Heap]: the array is never a flat
   float array whatever ['a] is, and a removed value is not kept
   reachable. *)
type 'a t = {
  mutable keys : int array; (* [-1]: free *)
  mutable values : Obj.t array;
  mutable bits : int; (* capacity = 1 lsl bits, once allocated *)
  mutable count : int;
}

let free = -1
let vacant = Obj.repr ()
let min_bits = 3

let create () = { keys = [||]; values = [||]; bits = 0; count = 0 }
let length t = t.count

(* Fibonacci hashing: the top [bits] of the key times 2^62/phi (made
   odd), modulo 2^63. *)
let home_bits bits key = (key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - bits)

(* The slot holding [key], or [-1]. *)
let slot t key =
  if t.count = 0 then -1
  else begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (home_bits t.bits key) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k <> free
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get keys !i = key then !i else -1
  end

let find t key =
  let i = slot t key in
  if i < 0 then raise Not_found else Obj.obj (Array.unsafe_get t.values i)

let mem t key = slot t key >= 0

(* Place a binding known to be absent, with room to spare. *)
let place t key v =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home_bits t.bits key) in
  while Array.unsafe_get keys !i <> free do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set t.values !i v

let resize t bits =
  let keys = t.keys and values = t.values in
  t.keys <- Array.make (1 lsl bits) free;
  t.values <- Array.make (1 lsl bits) vacant;
  t.bits <- bits;
  Array.iteri (fun i k -> if k <> free then place t k values.(i)) keys

let replace t key v =
  if key < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t key in
  if i >= 0 then Array.unsafe_set t.values i (Obj.repr v)
  else begin
    if t.bits = 0 then resize t min_bits
    else if 2 * (t.count + 1) > 1 lsl t.bits then resize t (t.bits + 1);
    place t key (Obj.repr v);
    t.count <- t.count + 1
  end

(* Backward-shift deletion: walk the chain after the hole and move back
   every entry whose home does not lie cyclically in (hole, j], so no
   probe from a home before the hole stops early at it. *)
let remove t key =
  let i = slot t key in
  if i >= 0 then begin
    let keys = t.keys and values = t.values in
    let mask = Array.length keys - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> free do
      let h = home_bits t.bits keys.(!j) in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        values.(!hole) <- values.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- free;
    values.(!hole) <- vacant;
    t.count <- t.count - 1
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun i k -> if k <> free then acc := f k (Obj.obj t.values.(i)) !acc)
    t.keys;
  !acc

let reset t =
  t.keys <- [||];
  t.values <- [||];
  t.bits <- 0;
  t.count <- 0

module For_testing = struct
  let capacity t = Array.length t.keys

  let home ~capacity key =
    let rec log2 b = if 1 lsl b >= capacity then b else log2 (b + 1) in
    home_bits (log2 0) key
end
