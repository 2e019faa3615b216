type drop_reason = Link | Partition | Crashed

type outcome = Enabled | Parked | Reduced | Rejected | Forced

type kind =
  | Send of { src : int; dst : int; control : bool }
  | Deliver of { src : int; dst : int }
  | Drop of { src : int; dst : int; reason : drop_reason }
  | Crash
  | Restart
  | Retransmit of { dst : int; tries : int }
  | Give_up of { dst : int }
  | Ack of { dst : int }
  | Epoch_bump
  | Assim of { outcome : outcome; guard : int }
  | Store_fault of { fault : string }
  | Store_salvage of { kept : int; dropped : int; fallback : bool }
  | Shed of { depth : int; retry_after : float }
  | Credit of { peer : int; grant : int; reset : bool }
  | Dead_letter of { dst : int; tries : int }

type record = {
  time : float;
  site : int;
  actor : string;
  epoch : int;
  mid : int;
  kind : kind;
}

let make ~time ~site ?(actor = "") ?(epoch = -1) ?(mid = -1) kind =
  { time; site; actor; epoch; mid; kind }

(* --- sinks --------------------------------------------------------------- *)

type sink = { emit_fn : record -> unit }

let emit s r = s.emit_fn r

let collector () =
  let acc = ref [] in
  ( { emit_fn = (fun r -> acc := r :: !acc) },
    fun () -> List.rev !acc )

let streaming f = { emit_fn = f }

(* --- schema ---------------------------------------------------------------
   [head], [context] and [declare] pass each field's name and value through a
   [pass], once: a writing pass collects the pairs in export order, a reading
   pass returns what a JSON object holds under the name. *)

type value = Int of int | Bool of bool | Num of float | Str of string
  | Name of string (* an enum's wire name *)

type pass = {
  int : string -> int -> int;
  bool : string -> bool -> bool;
  num : string -> float -> float;
  str : string -> string -> string;
  enum : 'a. string -> (string * 'a) list -> 'a -> 'a;
}

(* Each enum's wire names, read both ways. *)
let reasons = [ ("link", Link); ("partition", Partition); ("crash", Crashed) ]

let outcomes =
  [ ("enabled", Enabled); ("parked", Parked); ("reduced", Reduced);
    ("rejected", Rejected); ("forced", Forced) ]

let faults =
  List.map (fun f -> (f, f)) [ "torn"; "lost_tail"; "bit_flip"; "ckpt_corrupt" ]

(* The fields every line starts with. *)
let head p (r, name) =
  let time = p.num "t" r.time in
  let name = p.str "kind" name in
  let site = p.int "site" r.site in
  (time, name, site)

(* The optional fields: written when present ([""] / [-1] mean absent). *)
let context p r =
  let actor = p.str "actor" r.actor in
  let epoch = p.int "epoch" r.epoch in
  let mid = p.int "mid" r.mid in
  (actor, epoch, mid)

(* Each kind's wire name and payload fields, in export order. *)
let declare p = function
  | Send r ->
      let src = p.int "src" r.src in
      let dst = p.int "dst" r.dst in
      let control = p.bool "control" r.control in
      ("send", Send { src; dst; control })
  | Deliver r ->
      let src = p.int "src" r.src in
      let dst = p.int "dst" r.dst in
      ("deliver", Deliver { src; dst })
  | Drop r ->
      let src = p.int "src" r.src in
      let dst = p.int "dst" r.dst in
      let reason = p.enum "reason" reasons r.reason in
      ("drop", Drop { src; dst; reason })
  | Crash -> ("crash", Crash)
  | Restart -> ("restart", Restart)
  | Retransmit r ->
      let dst = p.int "dst" r.dst in
      let tries = p.int "tries" r.tries in
      ("retransmit", Retransmit { dst; tries })
  | Give_up r -> ("give_up", Give_up { dst = p.int "dst" r.dst })
  | Ack r -> ("ack", Ack { dst = p.int "dst" r.dst })
  | Epoch_bump -> ("epoch_bump", Epoch_bump)
  | Assim r ->
      let outcome = p.enum "outcome" outcomes r.outcome in
      let guard = p.int "guard" r.guard in
      ("assim", Assim { outcome; guard })
  | Store_fault r ->
      ("store_fault", Store_fault { fault = p.enum "fault" faults r.fault })
  | Store_salvage r ->
      let kept = p.int "kept" r.kept in
      let dropped = p.int "dropped" r.dropped in
      let fallback = p.bool "fallback" r.fallback in
      ("store_salvage", Store_salvage { kept; dropped; fallback })
  | Shed r ->
      let depth = p.int "depth" r.depth in
      let retry_after = p.num "retry_after" r.retry_after in
      ("shed", Shed { depth; retry_after })
  | Credit r ->
      let peer = p.int "peer" r.peer in
      let grant = p.int "grant" r.grant in
      let reset = p.bool "reset" r.reset in
      ("credit", Credit { peer; grant; reset })
  | Dead_letter r ->
      let dst = p.int "dst" r.dst in
      let tries = p.int "tries" r.tries in
      ("dead_letter", Dead_letter { dst; tries })

(* --- export -------------------------------------------------------------- *)

(* The fields [decl] passes [x] through, in order, less those [skip]s. *)
let collect ?(skip = fun _ -> false) decl x =
  let acc = ref [] in
  let put name v x =
    if not (skip v) then acc := (name, v) :: !acc;
    x
  in
  let name_in table v =
    match List.find_opt (fun (_, v') -> v' = v) table with
    | Some (name, _) -> name
    | None -> invalid_arg "Trace: a field value outside its enum table"
  in
  let p =
    {
      int = (fun n i -> put n (Int i) i);
      bool = (fun n b -> put n (Bool b) b);
      num = (fun n f -> put n (Num f) f);
      str = (fun n s -> put n (Str s) s);
      enum = (fun n table v -> put n (Name (name_in table v)) v);
    }
  in
  let result = decl p x in
  (result, List.rev !acc)

let fields k =
  let (name, _), payload = collect declare k in
  (name, payload)

let kind_name r = fst (fields r.kind)

(* The context fields and payload: a Chrome event's args. *)
let args r =
  let absent = function Int i -> i < 0 | Str s -> s = "" | _ -> false in
  let name, payload = fields r.kind in
  (name, snd (collect ~skip:absent context r) @ payload)

let render fields =
  let value = function
    | Int i -> string_of_int i
    | Bool b -> string_of_bool b
    | Num f -> Json.float_str f
    | Str s | Name s -> Json.quote s
  in
  let field (name, v) = Json.quote name ^ ":" ^ value v in
  "{" ^ String.concat "," (List.map field fields) ^ "}"

let line_of r =
  let name, args = args r in
  render (snd (collect head (r, name)) @ args)

let write_jsonl oc records =
  List.iter (fun r -> output_string oc (line_of r ^ "\n")) records

(* One of each kind, by wire name, with its Chrome category. *)
let kinds =
  List.concat_map
    (fun (c, ks) -> List.map (fun k -> (fst (fields k), (c, k))) ks)
    [
      ( "netsim",
        [ Crash; Restart; Deliver { src = 0; dst = 0 };
          Send { src = 0; dst = 0; control = false };
          Drop { src = 0; dst = 0; reason = Link } ] );
      ( "channel",
        [ Epoch_bump; Give_up { dst = 0 }; Retransmit { dst = 0; tries = 0 };
          Ack { dst = 0 }; Dead_letter { dst = 0; tries = 0 } ] );
      ("sched", [ Assim { outcome = Enabled; guard = 0 } ]);
      ( "store",
        [ Store_fault { fault = "torn" };
          Store_salvage { kept = 0; dropped = 0; fallback = false } ] );
      ( "flow",
        [ Shed { depth = 0; retry_after = 0.0 };
          Credit { peer = 0; grant = 0; reset = false } ] );
    ]

(* A Chrome event is named by its kind, qualified by the enum in its
   payload (["drop:link"], ["assim:parked"]); its args are the JSONL
   fields past [head]. *)
let write_chrome oc records =
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      let kind, args = args r in
      let category = fst (List.assoc kind kinds) in
      let enums =
        List.filter_map (function _, Name n -> Some n | _ -> None) args
      in
      let name = String.concat ":" (kind :: enums) in
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"p\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":%s}"
        (Json.quote name) (Json.quote category)
        (Json.float_str (r.time *. 1e6))
        r.site r.site (render args))
    records;
  output_string oc "]}\n"

(* --- validation ---------------------------------------------------------- *)

exception Invalid of string
let invalid fmt = Printf.ksprintf (fun e -> raise (Invalid e)) fmt

(* A reading pass over [json]: a missing or mistyped field is an error,
   or, when [lenient], a missing one leaves the value passed in. *)
let reader ?(lenient = false) json =
  let get conv what name x =
    match Json.member name json with
    | None -> if lenient then x else invalid "missing field %S" name
    | Some v -> (
        match conv v with
        | Some y -> y
        | None -> invalid "field %S is not %s" name what)
  in
  {
    int = get Json.to_int "an integer";
    bool = get Json.to_bool "a bool";
    num = get Json.to_float "a number";
    str = get Json.to_string_opt "a string";
    enum =
      (fun n table x ->
        let s = get Json.to_string_opt "a string" n "" in
        match List.assoc_opt s table with
        | Some v -> v
        | None when lenient && Json.member n json = None -> x
        | None -> invalid "unknown %s %S" n s);
  }

(* A key the line repeats would be read from its first occurrence. *)
let reject_repeated_keys = function
  | Json.Obj fields ->
      ignore
        (List.fold_left
           (fun seen (k, _) ->
             if List.mem k seen then invalid "repeated field %S" k else k :: seen)
           [] fields)
  | _ -> ()

let parse_line line =
  let blank = make ~time:0.0 ~site:0 Crash in
  try
    let json = Result.fold ~ok:Fun.id ~error:(invalid "%s") (Json.parse line) in
    reject_repeated_keys json;
    let time, name, site = head (reader json) (blank, "") in
    let actor, epoch, mid = context (reader ~lenient:true json) blank in
    let kind =
      match List.assoc_opt name kinds with
      | Some (_, k) -> snd (declare (reader json) k)
      | None -> invalid "unknown kind %S" name
    in
    (match kind with
    | Epoch_bump when epoch < 0 -> invalid "%s record without %S" name "epoch"
    | Assim _ when actor = "" -> invalid "%s record without %S" name "actor"
    | _ -> ());
    Ok { time; site; actor; epoch; mid; kind }
  with Invalid e -> Error e

let validate_file path =
  In_channel.with_open_text path (fun ic ->
      let rec loop lineno last_t count =
        match In_channel.input_line ic with
        | None -> Ok count
        | Some line when String.trim line = "" -> loop (lineno + 1) last_t count
        | Some line -> (
            match parse_line line with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok r when r.time < last_t ->
                Error
                  (Printf.sprintf "line %d: time %g decreases (previous %g)"
                     lineno r.time last_t)
            | Ok r -> loop (lineno + 1) r.time (count + 1))
      in
      loop 1 neg_infinity 0)

module For_testing = struct
  let line_of = line_of
end
