type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

(* Vacated slots hold this placeholder, never a popped entry: a stale
   reference would keep a delivered payload or a fired closure alive
   until the slot is reused.  Slots at or beyond [len] are never read. *)
let vacant : Obj.t entry = { key = infinity; seq = max_int; value = Obj.repr () }
let vacant () : 'a entry = Obj.magic vacant

let create () = { data = [||]; len = 0 }
let is_empty h = h.len = 0
let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h.data.(l) h.data.(!smallest) then smallest := l;
  if r < h.len && less h.data.(r) h.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let data = Array.make ncap (vacant ()) in
    Array.blit h.data 0 data 0 h.len;
    h.data <- data
  end

let push h ~key ~seq value =
  let entry = { key; seq; value } in
  grow h;
  h.data.(h.len) <- entry;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  h.data.(0).key

(* Remove the root, refill from the last slot and clear that slot. *)
let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let top = h.data.(0) in
  h.len <- h.len - 1;
  h.data.(0) <- h.data.(h.len);
  h.data.(h.len) <- vacant ();
  if h.len > 0 then sift_down h 0;
  top.value
