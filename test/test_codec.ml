(* The journal payload codecs: golden bytes for one value of every
   constructor of every journaled type, a QCheck round trip per codec,
   and the payloads each decoder must reject (as [None], never an
   exception).  The golden hex is the encoding the framed logs on
   durable media already hold: a change to it is a format change. *)

open Wf_core
open Wf_scheduler
open Helpers
module B = Wf_store.Binio

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* --- fixed values ---------------------------------------------------------- *)

let sym = Symbol.make
let psym = Symbol.parametrized
let pos s = Literal.pos (sym s)
let neg s = Literal.neg (sym s)
let ppos b args = Literal.pos (psym b args)
let pneg b args = Literal.neg (psym b args)

let guard : Guard.t =
  [
    {
      Guard.masks =
        Symbol.Map.(
          empty
          |> add (sym "a") (Symbol_state.has Literal.Pos)
          |> add (psym "p" [ "1"; "x" ]) Symbol_state.full);
      pending = [ Option.get (Term.make [ pos "b"; neg "c" ]); [ ppos "q" [ "2" ] ] ];
    };
    {
      Guard.masks = Symbol.Map.singleton (sym "d") (Symbol_state.hasnt Literal.Neg);
      pending = [];
    };
  ]

let knowledge =
  Knowledge.(
    empty
    |> occurred (pos "a") ~seqno:3
    |> promised (neg "b")
    |> occurred (pneg "f" [ "1" ]) ~seqno:(1 lsl 40)
    |> promised (pos "g"))

let messages =
  Messages.
    [
      Announce { lit = pos "a"; seqno = 300 };
      Promise_request
        { target = neg "b"; requester = ppos "r" [ "1" ]; offers = [ pos "c"; neg "d" ] };
      Promise { lit = pos "e"; to_ = neg "f" };
      Reserve { sym = psym "s" [ "x"; "y" ]; requester = pos "a" };
      Reserve_granted { sym = sym "s"; to_ = neg "b" };
      Reserve_denied { sym = sym "t"; to_ = pos "c" };
      Release { sym = sym "u"; holder = neg "d" };
      Recovered { sym = sym "v"; epoch = -5 };
    ]

let actor_inputs =
  Actor.
    [
      I_attempt { pol = Literal.Neg; entailed = guard };
      I_occurred { lit = pneg "w" [ "9" ]; seqno = -1 };
      I_close;
    ]
  @ List.map (fun m -> Actor.I_message m) messages

let actor_under d =
  let esym = sym "e" in
  Actor.create ~sym:esym ~site:0
    ~route:(fun _ -> -1)
    ~guard_pos:(Gtable.cell (Synth.guard d (pos "e")))
    ~guard_neg:(Gtable.cell (Synth.guard d (neg "e")))
    ~attr_pos:Wf_tasks.Attribute.default
    ~attr_neg:Wf_tasks.Attribute.uncontrollable ()

(* A real actor's state after a fixed script: a parked attempt, a
   holder and waiters, occurrences and a promise. *)
let actor_snapshot () =
  let esym = sym "e" in
  let a = actor_under (Expr.seq (Expr.event "f") (Expr.event "e")) in
  let ctx = Actor.muted_ctx (Wf_obs.Metrics.create ()) in
  List.iter (Actor.apply ctx a)
    Actor.
      [
        I_attempt { pol = Literal.Pos; entailed = Guard.top };
        I_message (Messages.Reserve { sym = esym; requester = pos "a" });
        I_message (Messages.Reserve { sym = esym; requester = pos "b" });
        I_message (Messages.Reserve { sym = esym; requester = neg "c" });
        I_occurred { lit = neg "g"; seqno = 1 };
        I_message (Messages.Promise { lit = pos "h"; to_ = pos "e" });
        I_message (Messages.Announce { lit = pos "k"; seqno = 2 });
      ];
  Actor.snapshot a

let center_inputs =
  Central_sched.
    [
      C_attempt (pos "a", [ neg "b"; ppos "c" [ "1" ] ]);
      C_occurred (neg "d");
      C_reject (pos "e");
    ]

let center_snapshot : Central_sched.c_snapshot =
  {
    cs_states = [ 0; 3; 200 ];
    cs_parked = [ (pos "a", [ neg "b" ]); (neg "c", []) ];
    cs_triggered = Literal.Set.of_list [ pos "t"; neg "u" ];
    cs_decided = [ sym "a"; psym "q" [ "7" ] ];
  }

let param_inputs =
  Param_engine.[ Attempt (psym "b_t1" [ "3" ]); Occurred (pneg "f_t1" [ "1" ]) ]

let param_snapshot : Param_sched.snapshot =
  {
    s_know = knowledge;
    s_seqno = 42;
    s_occurrences = [ ppos "b_t1" [ "2" ]; neg "x" ];
    s_parked_syms = [ psym "b_t2" [ "1" ] ];
  }

let vec fill xs =
  let v = Arena.Vec.create fill in
  List.iter (Arena.Vec.push v) xs;
  v

let fleet_snapshot : Fleet.snapshot =
  {
    f_tokens = vec "" [ "x1"; ""; "tok" ];
    f_occ = vec 0 [ 5; -1; 300 ];
    f_ptick = 9;
    f_extras = [| pos "z"; pneg "y" [ "3" ] |];
    f_parked = [| 0; 1; 77; 2; 0; 65 |];
  }

(* --- golden bytes ---------------------------------------------------------- *)

let goldens () =
  let each name enc xs = List.mapi (fun i x -> (Printf.sprintf "%s %d" name i, enc x)) xs in
  each "message" (B.encode Wire.message) messages
  @ [
      ("knowledge", B.encode Wire.knowledge knowledge);
      ("guard", B.encode Wire.guard guard);
    ]
  @ each "actor input" (encoded Actor.codec.enc_entry) actor_inputs
  @ [ ("actor snapshot", encoded Actor.codec.enc_ckpt (actor_snapshot ())) ]
  @ each "center input" (B.encode Central_sched.For_testing.input_codec) center_inputs
  @ [
      ( "center snapshot",
        B.encode Central_sched.For_testing.snapshot_codec center_snapshot );
    ]
  @ each "param input" (B.encode Param_engine.For_testing.input_codec) param_inputs
  @ [
      ("param snapshot", B.encode Param_sched.For_testing.snapshot_codec param_snapshot);
      ("fleet snapshot", B.encode Fleet.For_testing.snapshot_codec fleet_snapshot);
    ]

let golden_hex =
  [
    ("message 0", "0001610001d804");
    ("message 1", "0101620000017201013101020163000101640000");
    ("message 2", "020165000101660000");
    ("message 3", "030173020178017901610001");
    ("message 4", "0401730001620000");
    ("message 5", "0501740001630001");
    ("message 6", "0601750001640000");
    ("message 7", "0701760009");
    ("knowledge", "040161000101060162000000016601013101008080808080400167000001");
    ("guard", "020201610001017002013101780f0202016200010163000001017101013201010164000d00");
    ( "actor input 0",
      "0000020201610001017002013101780f0202016200010163000001017101013201010164000d00" );
    ("actor input 1", "0101770101390001");
    ("actor input 2", "03");
    ("actor input 3", "020001610001d804");
    ("actor input 4", "020101620000017201013101020163000101640000");
    ("actor input 5", "02020165000101660000");
    ("actor input 6", "02030173020178017901610001");
    ("actor input 7", "020401730001620000");
    ("actor input 8", "020501740001630001");
    ("actor input 9", "020601750001640000");
    ("actor input 10", "020701760009");
    ( "actor snapshot",
      "030167000100020168000001016b00010104000000000101610001020162000101630000"
      ^ "010100010101660001000001016600010000" );
    ("center input 0", "00016100010201620000016301013101");
    ("center input 1", "0101640000");
    ("center input 2", "0201650001");
    ( "center snapshot",
      "0300069003020161000101016200000163000000020174000101750000020161000171010137" );
    ("param input 0", "0004625f7431010133");
    ("param input 1", "0104665f743101013100");
    ( "param snapshot",
      "040161000101060162000000016601013101008080808080400167000001540204625f74"
      ^ "3101013201017800000104625f7432010131" );
    ("fleet snapshot", "030278310003746f6b030a01d8041202017a00010179010133000600029a0104008201");
  ]

let test_golden_bytes () =
  let got = goldens () in
  check Alcotest.(list string) "one golden per value" (List.map fst golden_hex)
    (List.map fst got);
  List.iter2
    (fun (name, want) (_, payload) -> check Alcotest.string name want (hex payload))
    golden_hex got

let int_hex =
  [
    (0, "00");
    (1, "02");
    (-1, "01");
    (63, "7e");
    (-64, "7f");
    (64, "8001");
    (1 lsl 40, "808080808040");
    (-(1 lsl 40), "ffffffffff3f");
    ((1 lsl 61) - 1, "feffffffffffffff3f");
    (-(1 lsl 61), "ffffffffffffffff3f");
  ]

let uint_hex =
  [ (0, "00"); (127, "7f"); (128, "8001"); (300, "ac02"); (max_int, "ffffffffffffffff3f") ]

let test_golden_ints () =
  List.iter
    (fun (n, want) -> check Alcotest.string (string_of_int n) want (hex (B.encode B.int n)))
    int_hex;
  List.iter
    (fun (n, want) -> check Alcotest.string (string_of_int n) want (hex (B.encode B.uint n)))
    uint_hex

(* Every strict prefix of a golden payload is truncated, and every
   golden payload with a byte appended has trailing garbage. *)
let test_truncated_and_trailing () =
  let decoders =
    [
      ("message", fun s -> Option.is_some (B.decode Wire.message s));
      ("knowledge", fun s -> Option.is_some (B.decode Wire.knowledge s));
      ("guard", fun s -> Option.is_some (B.decode Wire.guard s));
      ("actor input", fun s -> Option.is_some (Actor.codec.dec_entry s));
      ("actor snapshot", fun s -> Option.is_some (Actor.codec.dec_ckpt s));
      ( "center input",
        fun s -> Option.is_some (B.decode Central_sched.For_testing.input_codec s) );
      ( "center snapshot",
        fun s -> Option.is_some (B.decode Central_sched.For_testing.snapshot_codec s) );
      ( "param input",
        fun s -> Option.is_some (B.decode Param_engine.For_testing.input_codec s) );
      ( "param snapshot",
        fun s -> Option.is_some (B.decode Param_sched.For_testing.snapshot_codec s) );
      ( "fleet snapshot",
        fun s -> Option.is_some (B.decode Fleet.For_testing.snapshot_codec s) );
    ]
  in
  List.iter
    (fun (name, payload) ->
      let decodes =
        snd (List.find (fun (kind, _) -> String.starts_with ~prefix:kind name) decoders)
      in
      checkb (name ^ " decodes") (decodes payload);
      for n = 0 to String.length payload - 1 do
        checkb
          (Printf.sprintf "%s cut to %d bytes is rejected" name n)
          (not (decodes (String.sub payload 0 n)))
      done;
      checkb (name ^ " with a trailing byte is rejected") (not (decodes (payload ^ "\000"))))
    (goldens ())

(* --- rejections ------------------------------------------------------------ *)

let rejects name codec payload = checkb name (B.decode codec (of_hex payload) = None)

let test_rejections () =
  (* an unknown tag in each union *)
  rejects "message tag 8" Wire.message "0801760009";
  checkb "actor input tag 4" (Actor.codec.dec_entry (of_hex "04") = None);
  rejects "center input tag 3" Central_sched.For_testing.input_codec "0301640000";
  rejects "param input tag 2" Param_engine.For_testing.input_codec "0204665f743101013100";
  (* the knowledge fate's discriminant is a bool: 2 is neither *)
  rejects "fate discriminant 2" Wire.knowledge "010161000200";
  (* a bad bool byte (a literal's polarity) and a bad option byte *)
  rejects "polarity byte 2" Wire.literal "01610002";
  rejects "option byte 2" (B.option B.int) "0202";
  checkb "bool byte 0x81 (a bool is not a varint)"
    (B.decode Wire.knowledge (of_hex "0101610081000000") = None);
  (* a term that repeats a symbol, against the same term without *)
  let product term = "01" ^ "00" ^ "01" ^ term in
  checkb "distinct term decodes"
    (B.decode Wire.guard (of_hex (product "020161000101620000")) <> None);
  rejects "term repeats a symbol" Wire.guard (product "020161000101610000");
  (* a mask outside [full] *)
  let masked m = "01" ^ "01" ^ "016100" ^ hex (B.encode B.uint m) ^ "00" in
  checkb "mask full decodes" (B.decode Wire.guard (of_hex (masked Symbol_state.full)) <> None);
  rejects "mask outside full" Wire.guard (masked (Symbol_state.full + 1));
  Alcotest.check_raises "encoding a mask outside full"
    (B.Corrupt "mask out of range") (fun () ->
      ignore
        (B.encode Wire.guard
           [ { Guard.masks = Symbol.Map.singleton (sym "a") 16; pending = [] } ]));
  (* knowledge that gives a symbol two contradicting occurrences *)
  checkb "agreeing occurrences decode"
    (B.decode Wire.knowledge (of_hex "02016100010100016100010102") <> None);
  rejects "contradicting occurrences" Wire.knowledge "02016100010100016100010002";
  (* ragged fleet parked triples *)
  let fleet parked =
    "00" ^ "00" ^ "00" ^ "00" ^ hex (B.encode (B.list B.int) parked)
  in
  checkb "fleet triples decode"
    (B.decode Fleet.For_testing.snapshot_codec (of_hex (fleet [ 0; 1; 2 ])) <> None);
  rejects "ragged fleet triples" Fleet.For_testing.snapshot_codec (fleet [ 0; 1; 2; 3 ])

(* A varint past 63 bits is corrupt, never a negative count. *)
let test_varint_overflow () =
  let ninth_bit62 = "808080808080808040" in
  rejects "uint with bit 62 set" B.uint ninth_bit62;
  rejects "list count with bit 62 set" (B.list B.int) ninth_bit62;
  rejects "string length with bit 62 set" B.string ninth_bit62;
  rejects "ten-byte varint" B.int "80808080808080808001";
  checkb "nine-byte int decodes" (B.decode B.int (of_hex ninth_bit62) <> None);
  List.iter
    (fun n ->
      check Alcotest.(option int) (string_of_int n) (Some n) (B.decode B.int (B.encode B.int n)))
    [ max_int; min_int; 1 lsl 61; -(1 lsl 61); (-(1 lsl 61)) - 1; max_int - 1 ];
  check Alcotest.(option int) "max_int uint" (Some max_int)
    (B.decode B.uint (B.encode B.uint max_int));
  Alcotest.check_raises "negative uint" (Invalid_argument "Binio.uint: negative")
    (fun () -> ignore (B.encode B.uint (-1)))

let test_union_tags_distinct () =
  Alcotest.check_raises "two cases share a tag"
    (Invalid_argument "Binio.union: two cases share a tag") (fun () ->
      ignore
        (B.union B.uint
           [
             B.case 0 B.unit Fun.id (fun () -> Some ());
             B.case 0 B.unit Fun.id (fun () -> Some ());
           ]))

(* --- round trips ----------------------------------------------------------- *)

let gen_sym =
  QCheck2.Gen.(
    oneof
      [
        map sym (oneofl [ "a"; "b"; "e"; "" ]);
        map (fun k -> psym "p" [ string_of_int k ]) small_nat;
        map2 (fun a b -> psym "q" [ a; b ]) (string_size (int_bound 3)) string_printable;
      ])

let gen_lit = QCheck2.Gen.map2 (fun s p -> if p then Literal.pos s else Literal.neg s) gen_sym QCheck2.Gen.bool
let gen_lits = QCheck2.Gen.(list_size (int_bound 4) gen_lit)
let gen_guard = QCheck2.Gen.map2 Synth.guard gen_expr gen_literal

(* Knowledge from a list of fates, one per symbol (the first wins). *)
let gen_knowledge =
  QCheck2.Gen.(
    map
      (fun items ->
        List.fold_left
          (fun k (l, occurred, seqno) ->
            if Knowledge.fate_of k (Literal.symbol l) <> None then k
            else if occurred then Knowledge.occurred l ~seqno k
            else Knowledge.promised l k)
          Knowledge.empty items)
      (list_size (int_bound 5) (triple gen_lit bool int)))

let gen_message =
  let open QCheck2.Gen in
  oneof
    Messages.
      [
        map2 (fun lit seqno -> Announce { lit; seqno }) gen_lit int;
        map3
          (fun target requester offers -> Promise_request { target; requester; offers })
          gen_lit gen_lit gen_lits;
        map2 (fun lit to_ -> Promise { lit; to_ }) gen_lit gen_lit;
        map2 (fun sym requester -> Reserve { sym; requester }) gen_sym gen_lit;
        map2 (fun sym to_ -> Reserve_granted { sym; to_ }) gen_sym gen_lit;
        map2 (fun sym to_ -> Reserve_denied { sym; to_ }) gen_sym gen_lit;
        map2 (fun sym holder -> Release { sym; holder }) gen_sym gen_lit;
        map2 (fun sym epoch -> Recovered { sym; epoch }) gen_sym int;
      ]

let round_trips name ?(count = 200) codec gen equal =
  qprop ~count (name ^ " round-trips through its codec") gen (fun v ->
      match B.decode codec (B.encode codec v) with
      | Some v' -> equal v v'
      | None -> false)

let fleet_equal (a : Fleet.snapshot) (b : Fleet.snapshot) =
  let items v = List.init (Arena.Vec.length v) (Arena.Vec.get v) in
  items a.f_tokens = items b.f_tokens
  && items a.f_occ = items b.f_occ
  && a.f_ptick = b.f_ptick && a.f_extras = b.f_extras && a.f_parked = b.f_parked

(* A snapshot of a real actor after a random script decodes to one that
   re-encodes to the same bytes and restores to an equal state. *)
let actor_snapshot_round_trips =
  let gen_item =
    QCheck2.Gen.(
      oneof
        [
          return (Actor.I_attempt { pol = Literal.Pos; entailed = Guard.top });
          map2 (fun l seqno -> Actor.I_occurred { lit = l; seqno }) gen_literal nat;
          map (fun m -> Actor.I_message m) gen_message;
        ])
  in
  qprop "actor snapshot round-trips through its codec"
    QCheck2.Gen.(pair gen_expr (list_size (int_bound 12) gen_item))
    (fun (d, inputs) ->
      let ctx = Actor.muted_ctx (Wf_obs.Metrics.create ()) in
      let live = actor_under d in
      List.iter (Actor.apply ctx live) inputs;
      let bytes = encoded Actor.codec.enc_ckpt (Actor.snapshot live) in
      match Actor.codec.dec_ckpt bytes with
      | None -> false
      | Some s ->
          let fresh = actor_under d in
          Actor.restore fresh s;
          encoded Actor.codec.enc_ckpt s = bytes && Actor.equal_state live fresh)

let round_trip_tests =
  let open QCheck2.Gen in
  [
    round_trips "int" B.int int ( = );
    round_trips "uint" B.uint (oneof [ nat; map (fun n -> n land max_int) int ]) ( = );
    round_trips "string list option" B.(option (list string))
      (option (list_size (int_bound 4) (string_size (int_bound 8)))) ( = );
    round_trips "message" Wire.message gen_message ( = );
    round_trips "guard" Wire.guard gen_guard Guard.equal;
    round_trips "knowledge" Wire.knowledge gen_knowledge Knowledge.equal;
    round_trips "literal set" Wire.literal_set
      (map Literal.Set.of_list gen_lits) Literal.Set.equal;
    actor_snapshot_round_trips;
    round_trips "center input" Central_sched.For_testing.input_codec
      (oneof
         Central_sched.
           [
             map2 (fun l ls -> C_attempt (l, ls)) gen_lit gen_lits;
             map (fun l -> C_occurred l) gen_lit;
             map (fun l -> C_reject l) gen_lit;
           ])
      ( = );
    round_trips "center snapshot" Central_sched.For_testing.snapshot_codec
      (map
         (fun (((cs_states, cs_parked), cs_triggered), cs_decided) ->
           { Central_sched.cs_states; cs_parked; cs_triggered = Literal.Set.of_list cs_triggered; cs_decided })
         (pair
            (pair (pair (list_size (int_bound 4) nat) (list_size (int_bound 3) (pair gen_lit gen_lits))) gen_lits)
            (list_size (int_bound 3) gen_sym)))
      (fun (a : Central_sched.c_snapshot) b ->
        a.cs_states = b.cs_states && a.cs_parked = b.cs_parked
        && Literal.Set.equal a.cs_triggered b.cs_triggered
        && a.cs_decided = b.cs_decided);
    round_trips "param input" Param_engine.For_testing.input_codec
      (oneof
         [
           map (fun s -> Param_engine.Attempt s) gen_sym;
           map (fun l -> Param_engine.Occurred l) gen_lit;
         ])
      ( = );
    round_trips "param snapshot" Param_sched.For_testing.snapshot_codec
      (map
         (fun (((s_know, s_seqno), s_occurrences), s_parked_syms) ->
           { Param_sched.s_know; s_seqno; s_occurrences; s_parked_syms })
         (pair (pair (pair gen_knowledge int) gen_lits) (list_size (int_bound 3) gen_sym)))
      (fun (a : Param_sched.snapshot) b ->
        Knowledge.equal a.s_know b.s_know
        && a.s_seqno = b.s_seqno
        && a.s_occurrences = b.s_occurrences
        && a.s_parked_syms = b.s_parked_syms);
    round_trips "fleet snapshot" Fleet.For_testing.snapshot_codec
      (map
         (fun (((tokens, occ), f_ptick), (extras, triples)) ->
           {
             Fleet.f_tokens = vec "" tokens;
             f_occ = vec 0 occ;
             f_ptick;
             f_extras = Array.of_list extras;
             f_parked = Array.of_list (List.concat_map (fun (a, b, c) -> [ a; b; c ]) triples);
           })
         (pair
            (pair (pair (list_size (int_bound 4) string_printable) (list_size (int_bound 6) int)) int)
            (pair gen_lits (list_size (int_bound 3) (triple nat nat int)))))
      fleet_equal;
  ]

(* The center's decided set is a hash table; its checkpoint must not
   carry the table's internal order, or two centers in the same state
   would write different bytes.  Sixty symbols in a table grown from one
   bucket share buckets, where the order is the insertion order. *)
let test_center_decided_order () =
  let syms =
    List.init 60 (fun i ->
        if i mod 3 = 0 then Symbol.make (Printf.sprintf "e%d" i)
        else Symbol.parametrized (Printf.sprintf "t%d" (i mod 7)) [ string_of_int i ])
  in
  let bytes = Central_sched.For_testing.decided_checkpoint in
  let forward = bytes syms in
  check Alcotest.string "reversed decisions, same checkpoint" (hex forward)
    (hex (bytes (List.rev syms)));
  check Alcotest.string "interleaved decisions, same checkpoint" (hex forward)
    (hex
       (bytes
          (List.filteri (fun i _ -> i mod 2 = 1) syms
          @ List.filteri (fun i _ -> i mod 2 = 0) syms)));
  match B.decode Central_sched.For_testing.snapshot_codec forward with
  | None -> Alcotest.fail "checkpoint does not decode"
  | Some s ->
      check
        Alcotest.(list string)
        "decided symbols in Symbol.compare order"
        (List.map Symbol.name (List.sort Symbol.compare syms))
        (List.map Symbol.name s.Central_sched.cs_decided)

let suite =
  [
    Alcotest.test_case "golden payload bytes" `Quick test_golden_bytes;
    Alcotest.test_case "golden varint bytes" `Quick test_golden_ints;
    Alcotest.test_case "truncated and trailing payloads rejected" `Quick
      test_truncated_and_trailing;
    Alcotest.test_case "invalid payloads decode to None" `Quick test_rejections;
    Alcotest.test_case "varints past 63 bits are corrupt" `Quick test_varint_overflow;
    Alcotest.test_case "union tags are distinct" `Quick test_union_tags_distinct;
    Alcotest.test_case "center checkpoint independent of decision order" `Quick
      test_center_decided_order;
  ]
  @ round_trip_tests
