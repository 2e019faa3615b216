(** Tokens of the workflow specification language. *)

type t =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COLON
  | SEMI
  | COMMA
  | TILDE
  | PLUS
  | DOT
  | BAR
  | ARROW  (** [->] *)
  | LT
  | TOP  (** [T] *)
  | ZERO  (** [0] *)
  | EOF

val to_string : t -> string
