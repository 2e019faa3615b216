(* Symbols, literals, traces, and universe enumeration. *)

open Wf_core
open Helpers

let test_symbol_identity () =
  checkb "same name same symbol" (Symbol.equal (Symbol.make "e") (Symbol.make "e"));
  checkb "different names differ"
    (not (Symbol.equal (Symbol.make "e") (Symbol.make "f")));
  check Alcotest.string "plain name" "e" (Symbol.name (Symbol.make "e"));
  check Alcotest.string "parametrized name" "f(3,4)"
    (Symbol.name (Symbol.parametrized "f" [ "3"; "4" ]));
  check Alcotest.string "base strips args" "f"
    (Symbol.base (Symbol.parametrized "f" [ "3" ]));
  check
    Alcotest.(list string)
    "args recovered" [ "3" ]
    (Symbol.args (Symbol.parametrized "f" [ "3" ]))

let test_symbol_param_identity () =
  checkb "same params equal"
    (Symbol.equal (Symbol.parametrized "f" [ "1" ]) (Symbol.parametrized "f" [ "1" ]));
  checkb "different params differ"
    (not (Symbol.equal (Symbol.parametrized "f" [ "1" ]) (Symbol.parametrized "f" [ "2" ])));
  checkb "plain vs parametrized differ"
    (not (Symbol.equal (Symbol.make "f") (Symbol.parametrized "f" [ "1" ])))

(* [Symbol.equal] rejects on differing precomputed hashes before it
   walks names; it must still agree with the string order [compare]
   keeps for maps.  Both sides are built afresh, so no pair is
   physically equal. *)
let gen_symbol =
  QCheck2.Gen.(
    map2
      (fun base args ->
        match args with
        | None -> Symbol.make base
        | Some args -> Symbol.parametrized base args)
      (oneofl [ "e"; "f"; "ef"; "s_buy0" ])
      (opt (list_size (int_bound 2) (oneofl [ "1"; "2"; "12"; "" ]))))

let prop_symbol_equal_is_compare =
  qprop ~count:500 "Symbol.equal and Literal.equal agree with compare"
    ~print:(fun (a, b) -> Symbol.name a ^ " vs " ^ Symbol.name b)
    QCheck2.Gen.(pair gen_symbol gen_symbol)
    (fun (a, b) ->
      Symbol.equal a b = (Symbol.compare a b = 0)
      && Symbol.equal a b = Symbol.equal b a
      && Literal.equal (Literal.pos a) (Literal.pos b) = Symbol.equal a b
      && not (Literal.equal (Literal.pos a) (Literal.neg b)))

(* The integer keys must keep the name order exactly.  Names share
   6-, 7-, 8- and 9-byte prefixes (the keys hold 7 bytes and a length
   capped at 8), carry NUL bytes (the keys' padding) and high bytes, and
   may be empty; half the pairs are two fresh builds of one name or
   differ in one argument, so ties reach every branch of [compare]. *)
let gen_name =
  QCheck2.Gen.(
    map2 ( ^ )
      (oneofl [ ""; "abcdef"; "abcdefg"; "abcdefgh"; "abcdefghi"; "ab\000d\000f\000" ])
      (string_size ~gen:(oneofl [ '\000'; 'a'; 'h'; '\255' ]) (int_bound 3)))

let gen_spec =
  QCheck2.Gen.(pair gen_name (list_size (int_bound 3) gen_name))

let gen_spec_pair =
  QCheck2.Gen.(
    gen_spec >>= fun ((base, args) as a) ->
    frequency
      [
        (2, map (fun b -> (a, b)) gen_spec);
        (1, return (a, a));
        (1, map (fun extra -> (a, (base, args @ [ extra ]))) gen_name);
        ( 1,
          map
            (fun arg ->
              (a, (base, match args with [] -> [ arg ] | _ :: rest -> arg :: rest)))
            gen_name );
      ])

let symbol_of (base, args) =
  match args with [] -> Symbol.make base | _ -> Symbol.parametrized base args

let reference_compare (b1, a1) (b2, a2) =
  match String.compare b1 b2 with
  | 0 -> List.compare String.compare a1 a2
  | c -> c

let prop_symbol_order =
  let sign c = Int.compare c 0 in
  let show (b, a) =
    Printf.sprintf "%S %s" b (String.concat "," (List.map (Printf.sprintf "%S") a))
  in
  qprop ~count:2000 "Symbol.compare is the name order; equal, hash and Literal agree"
    ~print:(fun (x, y) -> show x ^ " vs " ^ show y)
    gen_spec_pair
    (fun (x, y) ->
      let a = symbol_of x and b = symbol_of y in
      let c = Symbol.compare a b in
      sign c = sign (reference_compare x y)
      && sign (Symbol.compare b a) = - sign c
      && Symbol.compare a (symbol_of x) = 0
      && Symbol.equal a b = (c = 0)
      && Symbol.equal b a = (c = 0)
      && Symbol.equal a (symbol_of x)
      && Symbol.hash a = Hashtbl.hash x
      && Symbol.hash b = Hashtbl.hash y
      && sign (Literal.compare (Literal.pos a) (Literal.pos b)) = sign c
      && sign (Literal.compare (Literal.neg a) (Literal.neg b)) = sign c
      && (c <> 0 || Literal.compare (Literal.pos a) (Literal.neg b) < 0))

let test_literal_complement () =
  let l = Literal.event "e" in
  checkb "complement flips" (not (Literal.is_pos (Literal.complement l)));
  checkb "involution: ē̄ = e"
    (Literal.equal l (Literal.complement (Literal.complement l)));
  check Alcotest.string "pp positive" "e" (Literal.to_string l);
  check Alcotest.string "pp negative" "~e"
    (Literal.to_string (Literal.complement l))

let test_trace_well_formed () =
  checkb "empty ok" (Trace.well_formed []);
  checkb "distinct ok" (Trace.well_formed (Trace.of_events [ "e"; "~f" ]));
  checkb "repeat rejected" (not (Trace.well_formed (Trace.of_events [ "e"; "e" ])));
  checkb "complement pair rejected"
    (not (Trace.well_formed (Trace.of_events [ "e"; "~e" ])))

let test_trace_maximal () =
  let alpha = alpha_ef in
  checkb "both decided is maximal"
    (Trace.maximal alpha (Trace.of_events [ "e"; "~f" ]));
  checkb "partial is not maximal"
    (not (Trace.maximal alpha (Trace.of_events [ "e" ])))

let test_trace_ops () =
  let u = Trace.of_events [ "e"; "~f"; "g" ] in
  check Alcotest.int "length" 3 (Trace.length u);
  check trace_testable "prefix 2" (Trace.of_events [ "e"; "~f" ]) (Trace.prefix 2 u);
  check trace_testable "suffix 1" (Trace.of_events [ "~f"; "g" ]) (Trace.suffix 1 u);
  check Alcotest.int "splits count" 4 (List.length (Reference.splits u));
  check
    Alcotest.(option int)
    "index of ~f" (Some 2)
    (Trace.For_testing.index_of (lit "~f") u);
  check Alcotest.(option int) "index of missing" None (Trace.For_testing.index_of (lit "f") u)

let test_trace_append () =
  let u = Trace.of_events [ "e" ] and v = Trace.of_events [ "f" ] in
  checkb "disjoint appends" (Trace.append u v <> None);
  checkb "clash refuses" (Trace.append u (Trace.of_events [ "~e" ]) = None)

let test_universe_example1 () =
  (* Example 1: |U_E| = 13 for Γ = {e, ē, f, f̄}. *)
  check Alcotest.int "example 1 size" 13 (List.length (Universe.traces alpha_ef));
  checkb "empty trace included"
    (List.exists (Trace.equal []) (Universe.traces alpha_ef));
  checkb "all well formed"
    (List.for_all Trace.well_formed (Universe.traces alpha_ef))

let test_universe_counts () =
  List.iter
    (fun n ->
      let names = List.filteri (fun i _ -> i < n) [ "a"; "b"; "c"; "d" ] in
      let alpha = Universe.of_names names in
      check Alcotest.int
        (Printf.sprintf "count %d" n)
        (Universe.count n)
        (List.length (Universe.traces alpha));
      check Alcotest.int
        (Printf.sprintf "count_maximal %d" n)
        (Universe.count_maximal n)
        (List.length (Universe.maximal_traces alpha)))
    [ 0; 1; 2; 3 ]

let test_universe_maximal () =
  let ms = Universe.maximal_traces alpha_ef in
  check Alcotest.int "2^2 * 2! maximal traces" 8 (List.length ms);
  checkb "every maximal trace decides both symbols"
    (List.for_all (Trace.maximal alpha_ef) ms)

(* --- Int_table against Stdlib.Hashtbl ------------------------------------ *)

(* Keys whose probe starts in one of the last two of 16 slots, hence in
   the last eighth of the slots at every capacity: they pile into one
   probe chain that wraps past the end of the slots, from homes that
   differ, so removals shift entries across the wrap and must tell
   which entries may move. *)
let chained_keys =
  let rec go k acc n =
    if n = 0 then Array.of_list (List.rev acc)
    else if Int_table.For_testing.home ~capacity:16 k >= 14 then
      go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 0 [] 48

let gen_table_ops =
  QCheck2.Gen.(
    let key =
      frequency
        [ (3, map (fun i -> chained_keys.(i)) (int_bound 47)); (1, int_bound 5000) ]
    in
    list_size (int_bound 300)
      (frequency
         [
           (4, map2 (fun k v -> `Replace (k, v)) key (float_bound_inclusive 10.0));
           (3, map (fun k -> `Remove k) key);
           (2, map (fun k -> `Find k) key);
           (1, map (fun k -> `Mem k) key);
           (1, return `Fold);
         ]))

(* Every operation answers as [Hashtbl] does, and after each one the
   length agrees and the capacity stays a power of two at least twice
   the length.  Float values check that the table boxes nothing it
   should not (no flat float array). *)
let table_matches_hashtbl ops =
  let t = Int_table.create () and m = Hashtbl.create 16 in
  let bindings () =
    List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
  in
  List.for_all
    (fun op ->
      let agrees =
        match op with
        | `Replace (k, v) ->
            Int_table.replace t k v;
            Hashtbl.replace m k v;
            true
        | `Remove k ->
            Int_table.remove t k;
            Hashtbl.remove m k;
            true
        | `Find k ->
            (match Int_table.find t k with
            | v -> Some v
            | exception Not_found -> None)
            = Hashtbl.find_opt m k
        | `Mem k -> Int_table.mem t k = Hashtbl.mem m k
        | `Fold ->
            bindings ()
            = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
      in
      let cap = Int_table.For_testing.capacity t in
      agrees
      && Int_table.length t = Hashtbl.length m
      && (cap = 0 || (cap land (cap - 1) = 0 && cap >= 2 * Int_table.length t)))
    ops
  && bindings () = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

let test_int_table_edges () =
  let t = Int_table.create () in
  check Alcotest.int "no slots before the first replace" 0
    (Int_table.For_testing.capacity t);
  checkb "empty find raises"
    (match Int_table.find t 3 with _ -> false | exception Not_found -> true);
  Int_table.remove t 3;
  Alcotest.check_raises "negative keys are refused"
    (Invalid_argument "Int_table.replace: negative key") (fun () ->
      Int_table.replace t (-1) "x");
  Array.iter (fun k -> Int_table.replace t k (string_of_int k)) chained_keys;
  check Alcotest.int "one chain of 48" 48 (Int_table.length t);
  Array.iteri
    (fun i k -> if i mod 2 = 0 then Int_table.remove t k)
    chained_keys;
  checkb "every odd key of the chain is still found"
    (Array.for_all Fun.id
       (Array.mapi
          (fun i k -> Int_table.mem t k = (i mod 2 = 1))
          chained_keys));
  Int_table.reset t;
  check Alcotest.int "reset drops the slots" 0 (Int_table.For_testing.capacity t);
  check Alcotest.int "reset drops the bindings" 0 (Int_table.length t)

let suite =
  [
    Alcotest.test_case "symbol identity" `Quick test_symbol_identity;
    Alcotest.test_case "parametrized symbols" `Quick test_symbol_param_identity;
    Alcotest.test_case "literal complement" `Quick test_literal_complement;
    Alcotest.test_case "trace well-formedness" `Quick test_trace_well_formed;
    Alcotest.test_case "trace maximality" `Quick test_trace_maximal;
    Alcotest.test_case "trace operations" `Quick test_trace_ops;
    Alcotest.test_case "trace append" `Quick test_trace_append;
    Alcotest.test_case "universe of Example 1" `Quick test_universe_example1;
    Alcotest.test_case "universe counting formulas" `Quick test_universe_counts;
    Alcotest.test_case "maximal universe" `Quick test_universe_maximal;
    qtest "prefix ++ suffix = trace"
      (gen_trace_over alpha_efg)
      (fun u ->
        List.for_all
          (fun i -> Trace.equal u (Trace.prefix i u @ Trace.suffix i u))
          (List.init (Trace.length u + 1) Fun.id));
    qtest "splits recompose"
      (gen_trace_over alpha_efg)
      (fun u ->
        List.for_all (fun (v, w) -> Trace.equal u (v @ w)) (Reference.splits u));
    prop_symbol_equal_is_compare;
    prop_symbol_order;
    Alcotest.test_case "int table edge cases" `Quick test_int_table_edges;
    qprop ~count:300 "int table = Hashtbl model across resizes and removals"
      gen_table_ops table_matches_hashtbl;
  ]
