let requires e f =
  Expr.choice (Expr.atom (Literal.complement e)) (Expr.atom f)

let precedes e f =
  Expr.choice_all
    [
      Expr.atom (Literal.complement e);
      Expr.atom (Literal.complement f);
      Expr.seq (Expr.atom e) (Expr.atom f);
    ]

let d_arrow = requires (Literal.event "e") (Literal.event "f")
let d_lt = precedes (Literal.event "e") (Literal.event "f")

let start_of t = Literal.event ("s_" ^ t)
let commit_of t = Literal.event ("c_" ^ t)
let abort_of t = Literal.event ("a_" ^ t)

let commit_order t1 t2 = precedes (commit_of t1) (commit_of t2)
let strong_commit t1 t2 = requires (commit_of t1) (commit_of t2)
let abort_dependency t1 t2 = requires (abort_of t1) (abort_of t2)

let weak_abort t1 t2 =
  Expr.choice_all
    [
      Expr.atom (Literal.complement (abort_of t1));
      Expr.atom (Literal.complement (commit_of t2));
      Expr.seq (Expr.atom (commit_of t2)) (Expr.atom (abort_of t1));
    ]

let termination_order t1 t2 =
  Expr.conj_all
    [
      precedes (commit_of t1) (commit_of t2);
      precedes (commit_of t1) (abort_of t2);
      precedes (abort_of t1) (commit_of t2);
      precedes (abort_of t1) (abort_of t2);
    ]

let exclusion t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (commit_of t1)))
    (Expr.atom (Literal.complement (commit_of t2)))

let begin_order t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (start_of t2)))
    (Expr.seq (Expr.atom (start_of t1)) (Expr.atom (start_of t2)))

let begin_on_commit t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (start_of t2)))
    (Expr.seq (Expr.atom (commit_of t1)) (Expr.atom (start_of t2)))

let serial t1 t2 =
  Expr.choice_all
    [
      Expr.atom (Literal.complement (start_of t2));
      Expr.seq (Expr.atom (commit_of t1)) (Expr.atom (start_of t2));
      Expr.seq (Expr.atom (abort_of t1)) (Expr.atom (start_of t2));
    ]

let compensate t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (abort_of t1)))
    (Expr.atom (start_of t2))

let prepare_of t = Literal.event ("p_" ^ t)

let commit_after_prepared t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (commit_of t1)))
    (Expr.seq (Expr.atom (prepare_of t2)) (Expr.atom (commit_of t1)))

let commit_on_commit t1 t2 =
  Expr.choice
    (Expr.atom (Literal.complement (commit_of t2)))
    (Expr.seq (Expr.atom (commit_of t1)) (Expr.atom (commit_of t2)))

let conditional_existence t1 t2 t3 =
  Expr.choice_all
    [
      Expr.atom (Literal.complement (commit_of t1));
      Expr.atom (commit_of t2);
      Expr.atom (start_of t3);
    ]

let travel_workflow ?cid () =
  let ev base =
    match cid with
    | None -> Literal.event base
    | Some c -> Literal.pos (Symbol.parametrized base [ c ])
  in
  let s_buy = ev "s_buy"
  and c_buy = ev "c_buy"
  and s_book = ev "s_book"
  and c_book = ev "c_book"
  and s_cancel = ev "s_cancel" in
  [
    (* (1) initiate book if buy is started *)
    ("d1", requires s_buy s_book);
    (* (2) if buy commits, it commits after book *)
    ( "d2",
      Expr.choice
        (Expr.atom (Literal.complement c_buy))
        (Expr.seq (Expr.atom c_book) (Expr.atom c_buy)) );
    (* (3) compensate book by cancel if buy fails to commit *)
    ( "d3",
      Expr.choice_all
        [
          Expr.atom (Literal.complement c_book);
          Expr.atom c_buy;
          Expr.atom s_cancel;
        ] );
  ]

let named =
  [
    ("d_arrow", d_arrow);
    ("d_lt", d_lt);
    ("commit_order", commit_order "t1" "t2");
    ("strong_commit", strong_commit "t1" "t2");
    ("abort_dependency", abort_dependency "t1" "t2");
    ("weak_abort", weak_abort "t1" "t2");
    ("exclusion", exclusion "t1" "t2");
    ("begin_order", begin_order "t1" "t2");
    ("begin_on_commit", begin_on_commit "t1" "t2");
    ("serial", serial "t1" "t2");
    ("compensate", compensate "t1" "t2");
    ("commit_after_prepared", commit_after_prepared "t1" "t2");
    ("commit_on_commit", commit_on_commit "t1" "t2");
  ]
