open Wf_core

type t =
  | Announce of { lit : Literal.t; seqno : int }
  | Promise_request of {
      target : Literal.t;
      requester : Literal.t;
      offers : Literal.t list;
    }
  | Promise of { lit : Literal.t; to_ : Literal.t }
  | Reserve of { sym : Symbol.t; requester : Literal.t }
  | Reserve_granted of { sym : Symbol.t; to_ : Literal.t }
  | Reserve_denied of { sym : Symbol.t; to_ : Literal.t }
  | Release of { sym : Symbol.t; holder : Literal.t }
  | Recovered of { sym : Symbol.t; epoch : int }

let symbols = function
  | Announce { lit; _ } -> [ Literal.symbol lit ]
  | Promise_request { target; requester; offers } ->
      Literal.symbol target :: Literal.symbol requester
      :: List.map Literal.symbol offers
  | Promise { lit; to_ } -> [ Literal.symbol lit; Literal.symbol to_ ]
  | Reserve { sym; requester } -> [ sym; Literal.symbol requester ]
  | Reserve_granted { sym; to_ } | Reserve_denied { sym; to_ } ->
      [ sym; Literal.symbol to_ ]
  | Release { sym; holder } -> [ sym; Literal.symbol holder ]
  | Recovered { sym; _ } -> [ sym ]

let labels =
  [|
    "announce";
    "promise_request";
    "promise";
    "reserve";
    "reserve_granted";
    "reserve_denied";
    "release";
    "recovered";
  |]

let tag = function
  | Announce _ -> 0
  | Promise_request _ -> 1
  | Promise _ -> 2
  | Reserve _ -> 3
  | Reserve_granted _ -> 4
  | Reserve_denied _ -> 5
  | Release _ -> 6
  | Recovered _ -> 7
