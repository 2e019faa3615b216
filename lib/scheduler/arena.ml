type t = {
  width : int;
  mutable cells : int array; (* row-major: cell (r, c) at r * width + c *)
  mutable rows : int;
}

let create ?(capacity = 1024) ~width () =
  if width <= 0 then invalid_arg "Arena.create: width must be positive";
  { width; cells = Array.make (max width (capacity * width)) 0; rows = 0 }

let width t = t.width
let rows t = t.rows

let ensure t row =
  if row >= t.rows then begin
    let needed = (row + 1) * t.width in
    if needed > Array.length t.cells then begin
      (* Double while small, then 1.125x: past 10^4 rows the doubling
         slack alone would cost a third of the per-binding budget. *)
      let cap = ref (Array.length t.cells) in
      while !cap < needed do
        cap := (if !cap < 8192 * t.width then !cap * 2 else !cap + (!cap / 8))
      done;
      let cells = Array.make !cap 0 in
      Array.blit t.cells 0 cells 0 (t.rows * t.width);
      t.cells <- cells
    end;
    t.rows <- row + 1
  end

let get t row col = Array.unsafe_get t.cells ((row * t.width) + col)
let set t row col v = Array.unsafe_set t.cells ((row * t.width) + col) v
let words t = Array.length t.cells + 4

let equal a b =
  a.width = b.width && a.rows = b.rows
  &&
  let n = a.rows * a.width in
  let rec go i = i >= n || (a.cells.(i) = b.cells.(i) && go (i + 1)) in
  go 0
