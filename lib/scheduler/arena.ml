let seg_rows = 4096
let seg_shift = 12
let seg_mask = seg_rows - 1
let () = assert (1 lsl seg_shift = seg_rows)

(* Directory growth: doubles, but a directory holds one pointer per
   [seg_rows] entries, so copying it never copies the data. *)
let grow_dir dir nseg filler =
  if nseg < Array.length dir then dir
  else begin
    let d = Array.make (max 4 (2 * Array.length dir)) filler in
    Array.blit dir 0 d 0 nseg;
    d
  end

type t = {
  width : int;
  mutable segs : int array array; (* segment k holds rows k*seg_rows.. *)
  mutable nseg : int;
  mutable rows : int;
}

let create ~width =
  if width <= 0 then invalid_arg "Arena.create: width must be positive";
  { width; segs = [||]; nseg = 0; rows = 0 }

let width t = t.width
let rows t = t.rows

let ensure t row =
  if row >= t.rows then begin
    while row lsr seg_shift >= t.nseg do
      t.segs <- grow_dir t.segs t.nseg [||];
      t.segs.(t.nseg) <- Array.make (seg_rows * t.width) 0;
      t.nseg <- t.nseg + 1
    done;
    t.rows <- row + 1
  end

let get t row col =
  Array.unsafe_get
    (Array.unsafe_get t.segs (row lsr seg_shift))
    (((row land seg_mask) * t.width) + col)

let set t row col v =
  Array.unsafe_set
    (Array.unsafe_get t.segs (row lsr seg_shift))
    (((row land seg_mask) * t.width) + col)
    v

let words t = (t.nseg * ((seg_rows * t.width) + 1)) + Array.length t.segs + 5

let equal a b =
  a.width = b.width && a.rows = b.rows
  &&
  let rec go r c =
    r >= a.rows
    || (if c >= a.width then go (r + 1) 0
        else get a r c = get b r c && go r (c + 1))
  in
  go 0 0

module Vec = struct
  type 'a t = {
    fill : 'a;
    mutable segs : 'a array array;
    mutable nseg : int;
    mutable len : int;
  }

  let create fill = { fill; segs = [||]; nseg = 0; len = 0 }
  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Arena.Vec.get";
    Array.unsafe_get (Array.unsafe_get v.segs (i lsr seg_shift)) (i land seg_mask)

  let push v x =
    let k = v.len lsr seg_shift in
    if k >= v.nseg then begin
      v.segs <- grow_dir v.segs v.nseg [||];
      v.segs.(k) <- Array.make seg_rows v.fill;
      v.nseg <- k + 1
    end;
    Array.unsafe_set (Array.unsafe_get v.segs k) (v.len land seg_mask) x;
    v.len <- v.len + 1

  (* Entries below [len] are never written again, so a view may share
     every segment; only the directory is copied. *)
  let share v =
    { fill = v.fill; segs = Array.sub v.segs 0 v.nseg; nseg = v.nseg; len = v.len }

  (* A writable copy of a view: full segments are shared (neither side
     ever writes them again), the partial last one is copied, so the
     copy's pushes land where no other holder of the segments writes. *)
  let restore v =
    let segs = Array.sub v.segs 0 v.nseg in
    let used = v.len land seg_mask in
    if used > 0 then begin
      let k = v.len lsr seg_shift in
      let seg = Array.make seg_rows v.fill in
      Array.blit segs.(k) 0 seg 0 used;
      segs.(k) <- seg
    end;
    { fill = v.fill; segs; nseg = v.nseg; len = v.len }

  let iter f v =
    for i = 0 to v.len - 1 do
      f (Array.unsafe_get (Array.unsafe_get v.segs (i lsr seg_shift)) (i land seg_mask))
    done

  let words v = (v.nseg * (seg_rows + 1)) + Array.length v.segs + 5
end

module For_testing = struct
  let seg_rows = seg_rows
end
