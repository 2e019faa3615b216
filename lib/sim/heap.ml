(* Three parallel arrays: the keys unboxed in a [Float.Array], the
   tie-breaking seqs, and the values.  Values are stored as [Obj.t] so a
   vacated slot can hold a placeholder of no particular type (the array
   is never a flat float array, whatever ['a] is); [take] hands a value
   back at the type it was pushed with. *)
type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable values : Obj.t array;
  mutable len : int;
}

(* Vacated value slots hold this placeholder, never a popped value: a
   stale reference would keep a delivered payload or a fired closure
   alive until the slot is reused.  Slots at or beyond [len] are never
   read. *)
let vacant = Obj.repr ()

let create () =
  { keys = Float.Array.create 0; seqs = [||]; values = [||]; len = 0 }

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.seqs in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let keys = Float.Array.create ncap in
    Float.Array.blit h.keys 0 keys 0 h.len;
    let seqs = Array.make ncap 0 in
    Array.blit h.seqs 0 seqs 0 h.len;
    let values = Array.make ncap vacant in
    Array.blit h.values 0 values 0 h.len;
    h.keys <- keys;
    h.seqs <- seqs;
    h.values <- values
  end

(* Sifting moves a hole: entries on the way shift into it, and the
   entry being placed is written once, where the hole stops.  An entry
   moves past another only when strictly before it in (key, seq)
   order. *)
let push h ~key ~seq value =
  grow h;
  let keys = h.keys and seqs = h.seqs and values = h.values in
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let kp = Float.Array.unsafe_get keys parent in
    if key < kp || (key = kp && seq < Array.unsafe_get seqs parent) then begin
      Float.Array.unsafe_set keys !i kp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set values !i (Array.unsafe_get values parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i (Obj.repr value)

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  Float.Array.get h.keys 0

(* Remove the root, sift the last entry down from the root's hole, and
   clear the slot it vacated. *)
let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let keys = h.keys and seqs = h.seqs and values = h.values in
  let top = values.(0) in
  let len = h.len - 1 in
  h.len <- len;
  let key = Float.Array.get keys len
  and seq = seqs.(len)
  and value = values.(len) in
  values.(len) <- vacant;
  if len > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        (* [c]: the smaller child, the left one on a tie *)
        let c = ref l in
        let r = l + 1 in
        if r < len then begin
          let kl = Float.Array.unsafe_get keys l
          and kr = Float.Array.unsafe_get keys r in
          if kr < kl || (kr = kl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then c := r
        end;
        let c = !c in
        let kc = Float.Array.unsafe_get keys c in
        if kc < key || (kc = key && Array.unsafe_get seqs c < seq) then begin
          Float.Array.unsafe_set keys !i kc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set values !i (Array.unsafe_get values c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set values !i value
  end;
  Obj.obj top
