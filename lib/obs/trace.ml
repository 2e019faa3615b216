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

(* --- export -------------------------------------------------------------- *)

let kind_name r =
  match r.kind with
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Crash -> "crash"
  | Restart -> "restart"
  | Retransmit _ -> "retransmit"
  | Give_up _ -> "give_up"
  | Ack _ -> "ack"
  | Epoch_bump -> "epoch_bump"
  | Assim _ -> "assim"
  | Store_fault _ -> "store_fault"
  | Store_salvage _ -> "store_salvage"
  | Shed _ -> "shed"
  | Credit _ -> "credit"
  | Dead_letter _ -> "dead_letter"

let reason_name = function
  | Link -> "link"
  | Partition -> "partition"
  | Crashed -> "crash"

let outcome_name = function
  | Enabled -> "enabled"
  | Parked -> "parked"
  | Reduced -> "reduced"
  | Rejected -> "rejected"
  | Forced -> "forced"

let line_of r =
  let buf = Buffer.create 96 in
  let field name value =
    Buffer.add_char buf ',';
    Buffer.add_string buf name;
    Buffer.add_char buf ':';
    Buffer.add_string buf value
  in
  Buffer.add_string buf "{\"t\":";
  Buffer.add_string buf (Json.float_str r.time);
  field "\"kind\"" (Json.quote (kind_name r));
  field "\"site\"" (string_of_int r.site);
  if r.actor <> "" then field "\"actor\"" (Json.quote r.actor);
  if r.epoch >= 0 then field "\"epoch\"" (string_of_int r.epoch);
  if r.mid >= 0 then field "\"mid\"" (string_of_int r.mid);
  (match r.kind with
  | Send { src; dst; control } ->
      field "\"src\"" (string_of_int src);
      field "\"dst\"" (string_of_int dst);
      field "\"control\"" (if control then "true" else "false")
  | Deliver { src; dst } ->
      field "\"src\"" (string_of_int src);
      field "\"dst\"" (string_of_int dst)
  | Drop { src; dst; reason } ->
      field "\"src\"" (string_of_int src);
      field "\"dst\"" (string_of_int dst);
      field "\"reason\"" (Json.quote (reason_name reason))
  | Crash | Restart | Epoch_bump -> ()
  | Retransmit { dst; tries } ->
      field "\"dst\"" (string_of_int dst);
      field "\"tries\"" (string_of_int tries)
  | Give_up { dst } | Ack { dst } -> field "\"dst\"" (string_of_int dst)
  | Assim { outcome; guard } ->
      field "\"outcome\"" (Json.quote (outcome_name outcome));
      field "\"guard\"" (string_of_int guard)
  | Store_fault { fault } -> field "\"fault\"" (Json.quote fault)
  | Store_salvage { kept; dropped; fallback } ->
      field "\"kept\"" (string_of_int kept);
      field "\"dropped\"" (string_of_int dropped);
      field "\"fallback\"" (if fallback then "true" else "false")
  | Shed { depth; retry_after } ->
      field "\"depth\"" (string_of_int depth);
      field "\"retry_after\"" (Json.float_str retry_after)
  | Credit { peer; grant; reset } ->
      field "\"peer\"" (string_of_int peer);
      field "\"grant\"" (string_of_int grant);
      field "\"reset\"" (if reset then "true" else "false")
  | Dead_letter { dst; tries } ->
      field "\"dst\"" (string_of_int dst);
      field "\"tries\"" (string_of_int tries));
  Buffer.add_char buf '}';
  Buffer.contents buf

let write_jsonl oc records =
  List.iter
    (fun r ->
      output_string oc (line_of r);
      output_char oc '\n')
    records

let chrome_category r =
  match r.kind with
  | Send _ | Deliver _ | Drop _ | Crash | Restart -> "netsim"
  | Retransmit _ | Give_up _ | Ack _ | Epoch_bump | Dead_letter _ -> "channel"
  | Assim _ -> "sched"
  | Store_fault _ | Store_salvage _ -> "store"
  | Shed _ | Credit _ -> "flow"

let write_chrome oc records =
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      let name =
        match r.kind with
        | Assim { outcome; _ } -> "assim:" ^ outcome_name outcome
        | Drop { reason; _ } -> "drop:" ^ reason_name reason
        | Store_fault { fault } -> "store_fault:" ^ fault
        | _ -> kind_name r
      in
      let args =
        let kv k v = Printf.sprintf "%s:%s" (Json.quote k) v in
        let base =
          (if r.actor <> "" then [ kv "actor" (Json.quote r.actor) ] else [])
          @ (if r.epoch >= 0 then [ kv "epoch" (string_of_int r.epoch) ] else [])
          @ if r.mid >= 0 then [ kv "mid" (string_of_int r.mid) ] else []
        in
        let extra =
          match r.kind with
          | Send { src; dst; control } ->
              [
                kv "src" (string_of_int src);
                kv "dst" (string_of_int dst);
                kv "control" (if control then "true" else "false");
              ]
          | Deliver { src; dst } | Drop { src; dst; _ } ->
              [ kv "src" (string_of_int src); kv "dst" (string_of_int dst) ]
          | Retransmit { dst; tries } ->
              [ kv "dst" (string_of_int dst); kv "tries" (string_of_int tries) ]
          | Give_up { dst } | Ack { dst } -> [ kv "dst" (string_of_int dst) ]
          | Assim { guard; _ } -> [ kv "guard" (string_of_int guard) ]
          | Store_fault { fault } -> [ kv "fault" (Json.quote fault) ]
          | Store_salvage { kept; dropped; fallback } ->
              [
                kv "kept" (string_of_int kept);
                kv "dropped" (string_of_int dropped);
                kv "fallback" (if fallback then "true" else "false");
              ]
          | Shed { depth; retry_after } ->
              [
                kv "depth" (string_of_int depth);
                kv "retry_after" (Json.float_str retry_after);
              ]
          | Credit { peer; grant; reset } ->
              [
                kv "peer" (string_of_int peer);
                kv "grant" (string_of_int grant);
                kv "reset" (if reset then "true" else "false");
              ]
          | Dead_letter { dst; tries } ->
              [ kv "dst" (string_of_int dst); kv "tries" (string_of_int tries) ]
          | Crash | Restart | Epoch_bump -> []
        in
        String.concat "," (base @ extra)
      in
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"i\",\"s\":\"p\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
        (Json.quote name)
        (Json.quote (chrome_category r))
        (Json.float_str (r.time *. 1e6))
        r.site r.site args)
    records;
  output_string oc "]}\n"

(* --- validation ---------------------------------------------------------- *)

let parse_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
      let int_field name =
        match Json.member name json with
        | Some v -> (
            match Json.to_int v with
            | Some i -> Ok i
            | None -> Error (Printf.sprintf "field %S is not an integer" name))
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let str_field name =
        match Json.member name json with
        | Some v -> (
            match Json.to_string_opt v with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "field %S is not a string" name))
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let bool_field name =
        match Json.member name json with
        | Some v -> (
            match Json.to_bool v with
            | Some b -> Ok b
            | None -> Error (Printf.sprintf "field %S is not a bool" name))
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let ( let* ) = Result.bind in
      let* time =
        match Json.member "t" json with
        | Some v -> (
            match Json.to_float v with
            | Some f -> Ok f
            | None -> Error "field \"t\" is not a number")
        | None -> Error "missing field \"t\""
      in
      let* site = int_field "site" in
      let* kind_s = str_field "kind" in
      let actor =
        match Json.member "actor" json with
        | Some (Json.Str s) -> s
        | _ -> ""
      in
      let opt_int name =
        match Json.member name json with
        | Some v -> ( match Json.to_int v with Some i -> i | None -> -1)
        | None -> -1
      in
      let epoch = opt_int "epoch" and mid = opt_int "mid" in
      let* kind =
        match kind_s with
        | "send" ->
            let* src = int_field "src" in
            let* dst = int_field "dst" in
            let* control = bool_field "control" in
            Ok (Send { src; dst; control })
        | "deliver" ->
            let* src = int_field "src" in
            let* dst = int_field "dst" in
            Ok (Deliver { src; dst })
        | "drop" ->
            let* src = int_field "src" in
            let* dst = int_field "dst" in
            let* reason_s = str_field "reason" in
            let* reason =
              match reason_s with
              | "link" -> Ok Link
              | "partition" -> Ok Partition
              | "crash" -> Ok Crashed
              | s -> Error (Printf.sprintf "unknown drop reason %S" s)
            in
            Ok (Drop { src; dst; reason })
        | "crash" -> Ok Crash
        | "restart" -> Ok Restart
        | "retransmit" ->
            let* dst = int_field "dst" in
            let* tries = int_field "tries" in
            Ok (Retransmit { dst; tries })
        | "give_up" ->
            let* dst = int_field "dst" in
            Ok (Give_up { dst })
        | "ack" ->
            let* dst = int_field "dst" in
            Ok (Ack { dst })
        | "epoch_bump" ->
            if epoch < 0 then Error "epoch_bump record without \"epoch\""
            else Ok Epoch_bump
        | "assim" ->
            let* outcome_s = str_field "outcome" in
            let* outcome =
              match outcome_s with
              | "enabled" -> Ok Enabled
              | "parked" -> Ok Parked
              | "reduced" -> Ok Reduced
              | "rejected" -> Ok Rejected
              | "forced" -> Ok Forced
              | s -> Error (Printf.sprintf "unknown assim outcome %S" s)
            in
            let* guard = int_field "guard" in
            if actor = "" then Error "assim record without \"actor\""
            else Ok (Assim { outcome; guard })
        | "store_fault" ->
            let* fault = str_field "fault" in
            let* () =
              match fault with
              | "torn" | "lost_tail" | "bit_flip" | "ckpt_corrupt" -> Ok ()
              | s -> Error (Printf.sprintf "unknown store fault %S" s)
            in
            Ok (Store_fault { fault })
        | "store_salvage" ->
            let* kept = int_field "kept" in
            let* dropped = int_field "dropped" in
            let* fallback = bool_field "fallback" in
            Ok (Store_salvage { kept; dropped; fallback })
        | "shed" ->
            let* depth = int_field "depth" in
            let* retry_after =
              match Json.member "retry_after" json with
              | Some v -> (
                  match Json.to_float v with
                  | Some f -> Ok f
                  | None -> Error "field \"retry_after\" is not a number")
              | None -> Error "missing field \"retry_after\""
            in
            Ok (Shed { depth; retry_after })
        | "credit" ->
            let* peer = int_field "peer" in
            let* grant = int_field "grant" in
            let* reset = bool_field "reset" in
            Ok (Credit { peer; grant; reset })
        | "dead_letter" ->
            let* dst = int_field "dst" in
            let* tries = int_field "tries" in
            Ok (Dead_letter { dst; tries })
        | s -> Error (Printf.sprintf "unknown kind %S" s)
      in
      Ok { time; site; actor; epoch; mid; kind })

let validate_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno last_t count =
        match input_line ic with
        | exception End_of_file -> Ok count
        | line when String.trim line = "" -> loop (lineno + 1) last_t count
        | line -> (
            match parse_line line with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok r ->
                if r.time < last_t then
                  Error
                    (Printf.sprintf "line %d: time %g decreases (previous %g)"
                       lineno r.time last_t)
                else loop (lineno + 1) r.time (count + 1))
      in
      loop 1 neg_infinity 0)

module For_testing = struct
  let line_of = line_of
end
