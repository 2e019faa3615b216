type t = {
  row_labels : string list;
  col_labels : string list;
  cells : bool array array;
}

let make ~rows ~points =
  let col_labels =
    List.map (fun (u, i) -> Printf.sprintf "%s,%d" (Trace.to_string u) i) points
  in
  let cells =
    Array.of_list
      (List.map
         (fun (_, g) ->
           Array.of_list (List.map (fun (u, i) -> Tsemantics.sat u i g) points))
         rows)
  in
  { row_labels = List.map fst rows; col_labels; cells }

let figure3 () =
  let e = Formula.event "e" in
  let ne = Formula.complement "e" in
  let rows =
    [
      ("!e", Formula.not_ e);
      ("[]e", Formula.always e);
      ("<>e", Formula.eventually e);
      ("!~e", Formula.not_ ne);
      ("[]~e", Formula.always ne);
      ("<>~e", Formula.eventually ne);
    ]
  in
  let tr_e = Trace.of_events [ "e" ] and tr_ne = Trace.of_events [ "~e" ] in
  make ~rows ~points:[ (tr_e, 0); (tr_e, 1); (tr_ne, 0); (tr_ne, 1) ]

let example8_laws () =
  let alpha = Universe.of_names [ "e" ] in
  let e = Formula.event "e" and ne = Formula.complement "e" in
  let box f = Formula.always f
  and dia f = Formula.eventually f
  and neg f = Formula.not_ f in
  let equiv = Tsemantics.equivalent ~alphabet:alpha in
  [
    ("(a) []e + []~e ≠ T", not (equiv (Formula.or_ (box e) (box ne)) Formula.top));
    ("(b) <>e + <>~e = T", equiv (Formula.or_ (dia e) (dia ne)) Formula.top);
    ("(c) <>e | <>~e = 0", equiv (Formula.and_ (dia e) (dia ne)) Formula.zero);
    ("(d) <>e + []~e ≠ T", not (equiv (Formula.or_ (dia e) (box ne)) Formula.top));
    ( "(e) !e complements []e",
      equiv (Formula.or_ (neg e) (box e)) Formula.top
      && equiv (Formula.and_ (neg e) (box e)) Formula.zero );
    ("(f) !e + []~e = !e", equiv (Formula.or_ (neg e) (box ne)) (neg e));
  ]

(* Display width in codepoints (all our glyphs are single-column). *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let render t =
  let buf = Buffer.create 256 in
  let w =
    List.fold_left (fun acc s -> max acc (display_width s)) 0 t.row_labels
  in
  let pad s n =
    let len = display_width s in
    if len >= n then s else s ^ String.make (n - len) ' '
  in
  Buffer.add_string buf (pad "" w);
  List.iter (fun c -> Buffer.add_string buf (" | " ^ c)) t.col_labels;
  Buffer.add_char buf '\n';
  List.iteri
    (fun r label ->
      Buffer.add_string buf (pad label w);
      List.iteri
        (fun c col ->
          let mark = if t.cells.(r).(c) then "✓" else " " in
          Buffer.add_string buf (" | " ^ pad mark (display_width col)))
        t.col_labels;
      Buffer.add_char buf '\n')
    t.row_labels;
  Buffer.contents buf
