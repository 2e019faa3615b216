(* Binary payload codecs for the journals.

   A codec pairs a writer into a Buffer with a reader over a string
   through a mutable cursor; the reader raises [Corrupt] on any
   malformed input and [decode] turns that into [None], never an
   exception escaping recovery.  Integers use LEB128 varints (entries
   are dominated by small ints and short strings), so payloads stay
   compact without fixed-width waste. *)

exception Corrupt of string

type reader = { src : string; mutable pos : int }
type 'a t = { put : Buffer.t -> 'a -> unit; get : reader -> 'a }

let fail msg = raise (Corrupt msg)

let byte r =
  if r.pos >= String.length r.src then fail "unexpected end of payload";
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* --- varints: LEB128 over the int's 63 bits as unsigned ------------------- *)

let rec put_varint buf n =
  if n land lnot 0x7F = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
    put_varint buf (n lsr 7)
  end

(* Nine bytes carry 63 bits; a ninth byte that continues overflows. *)
let get_varint r =
  let rec go shift acc =
    let b = byte r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift = 56 then fail "varint overflow"
    else go (shift + 7) acc
  in
  go 0 0

let get_unsigned r =
  let n = get_varint r in
  if n < 0 then fail "varint overflow" else n

let uint =
  let put buf n =
    if n < 0 then invalid_arg "Binio.uint: negative" else put_varint buf n
  in
  { put; get = get_unsigned }

(* 63-bit zigzag: 0, -1, 1, -2, ... map to 0, 1, 2, 3, ... *)
let int =
  let put buf n = put_varint buf ((n lsl 1) lxor (n asr 62)) in
  let get r = let z = get_varint r in (z lsr 1) lxor -(z land 1) in
  { put; get }

(* --- strings, bools, unit ------------------------------------------------- *)

(* Counts and lengths call the varint functions directly, not through
   [uint]'s closures: every symbol writes and reads two of them.  More
   than the payload has left is corrupt. *)
let length r what =
  let n = get_unsigned r in
  if n > String.length r.src - r.pos then fail (what ^ " overruns payload")
  else n

let string =
  let put buf s = put_varint buf (String.length s); Buffer.add_string buf s in
  let get r =
    let n = length r "string" in
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s
  in
  { put; get }

let put_flag buf b = Buffer.add_char buf (if b then '\001' else '\000')

let get_flag what r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | n -> fail (Printf.sprintf "bad %s byte %d" what n)

let bool = { put = put_flag; get = get_flag "bool" }
let unit = { put = (fun _ () -> ()); get = ignore }

(* --- combinators ---------------------------------------------------------- *)

let option c =
  let put buf = function
    | None -> put_flag buf false
    | Some v -> put_flag buf true; c.put buf v
  in
  { put; get = (fun r -> if get_flag "option" r then Some (c.get r) else None) }

(* A top-level loop: [List.iter (c.put buf)] would allocate a closure
   per list, and every symbol writes one. *)
let rec put_all c buf = function
  | [] -> ()
  | x :: rest -> c.put buf x; put_all c buf rest

let list c =
  let put buf xs = put_varint buf (List.length xs); put_all c buf xs in
  { put; get = (fun r -> List.init (length r "list") (fun _ -> c.get r)) }

(* Fields are read left to right, so each is bound before the next is
   read: the evaluation order of a tuple's components is unspecified. *)
let pair a b =
  let put buf (x, y) = a.put buf x; b.put buf y in
  { put; get = (fun r -> let x = a.get r in (x, b.get r)) }

let triple a b c =
  let put buf (x, y, z) = a.put buf x; b.put buf y; c.put buf z in
  { put; get = (fun r -> let x = a.get r in let y = b.get r in (x, y, c.get r)) }

let map of_wire to_wire c =
  let put buf v = c.put buf (to_wire v) in
  { put; get = (fun r -> of_wire (c.get r)) }

type 'a case =
  | Case : {
      tag : int;
      fields : 'b t;
      build : 'b -> 'a;
      take_apart : 'a -> 'b option;
    }
      -> 'a case

let case tag fields build take_apart = Case { tag; fields; build; take_apart }

(* Decoding indexes the cases by tag; journal recovery decodes every
   frame of the verified prefix. *)
let union tag cases =
  let size = List.fold_left (fun m (Case c) -> max m (c.tag + 1)) 0 cases in
  let by_tag = Array.make size None in
  List.iter
    (fun (Case c as case) ->
      if Option.is_some by_tag.(c.tag) then
        invalid_arg "Binio.union: two cases share a tag";
      by_tag.(c.tag) <- Some case)
    cases;
  let rec put_first buf v = function
    | [] -> invalid_arg "Binio.union: no case takes the value apart"
    | Case c :: rest -> (
        match c.take_apart v with
        | Some fields -> tag.put buf c.tag; c.fields.put buf fields
        | None -> put_first buf v rest)
  in
  let get r =
    let k = tag.get r in
    match if k < size then by_tag.(k) else None with
    | Some (Case c) -> c.build (c.fields.get r)
    | None -> fail "unknown union tag"
  in
  { put = (fun buf v -> put_first buf v cases); get }

let custom put get = { put; get }
let write c = c.put
let read c = c.get

(* --- entry points --------------------------------------------------------- *)

let encode c v =
  let buf = Buffer.create 64 in
  c.put buf v;
  Buffer.contents buf

(* A decoder must consume the payload exactly: trailing garbage means
   the payload is not what the encoder produced. *)
let decode c s =
  match
    let r = { src = s; pos = 0 } in
    let v = c.get r in
    if r.pos >= String.length s then Some v else None
  with
  | v -> v
  | exception Corrupt _ -> None
