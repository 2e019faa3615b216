(* Nearest-rank order statistics.  The percentile of [p] over n samples
   is the sample of 1-based rank ceil(p * n) in sorted order, so every
   reported value is a value that was actually observed. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* The epsilon keeps p * n from rounding up across an integer, e.g.
   0.29 * 100 = 29.000000000000004. *)
let rank p n =
  let r = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let of_sorted s p =
  let n = Array.length s in
  if n = 0 then nan else s.(rank p n - 1)

let percentile a p = of_sorted (sorted a) p
let median a = percentile a 0.5

(* (q1, median, q3) *)
let quartiles a =
  let s = sorted a in
  (of_sorted s 0.25, of_sorted s 0.5, of_sorted s 0.75)
