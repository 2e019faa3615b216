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
  | ARROW
  | LT
  | TOP
  | ZERO
  | EOF

let to_string = function
  | IDENT s -> s
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COLON -> ":"
  | SEMI -> ";"
  | COMMA -> ","
  | TILDE -> "~"
  | PLUS -> "+"
  | DOT -> "."
  | BAR -> "|"
  | ARROW -> "->"
  | LT -> "<"
  | TOP -> "T"
  | ZERO -> "0"
  | EOF -> "<eof>"

