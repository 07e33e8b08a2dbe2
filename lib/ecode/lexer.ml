(* Hand-written lexer for Ecode. *)

exception Error of string * Token.loc

let error loc fmt = Fmt.kstr (fun s -> raise (Error (s, loc))) fmt

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Token.loc = { line = st.line; col = st.pos - st.bol + 1 }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
   | Some '\n' ->
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let skip_ws_and_comments st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      go ()
    | Some '/' when peek2 st = Some '/' ->
      while peek st <> None && peek st <> Some '\n' do advance st done;
      go ()
    | Some '/' when peek2 st = Some '*' ->
      let start = loc st in
      advance st;
      advance st;
      let rec skip () =
        match peek st, peek2 st with
        | Some '*', Some '/' ->
          advance st;
          advance st
        | None, _ -> error start "unterminated comment"
        | _ ->
          advance st;
          skip ()
      in
      skip ();
      go ()
    | _ -> ()
  in
  go ()

let lex_number st : Token.t =
  let start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do advance st done;
  let is_float =
    match peek st, peek2 st with
    | Some '.', Some c when is_digit c -> true
    | Some ('e' | 'E'), _ -> true
    | _ -> false
  in
  if is_float then begin
    if peek st = Some '.' then begin
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do advance st done
    end;
    (match peek st with
     | Some ('e' | 'E') ->
       advance st;
       (match peek st with Some ('+' | '-') -> advance st | _ -> ());
       while (match peek st with Some c -> is_digit c | None -> false) do advance st done
     | _ -> ());
    Token.Float_lit (float_of_string (String.sub st.src start (st.pos - start)))
  end
  else Token.Int_lit (int_of_string (String.sub st.src start (st.pos - start)))

let lex_escape st where =
  match peek st with
  | Some 'n' -> advance st; '\n'
  | Some 't' -> advance st; '\t'
  | Some 'r' -> advance st; '\r'
  | Some '0' -> advance st; '\x00'
  | Some '\\' -> advance st; '\\'
  | Some '\'' -> advance st; '\''
  | Some '"' -> advance st; '"'
  | Some c -> advance st; c
  | None -> error where "unterminated escape"

let lex_char st : Token.t =
  let where = loc st in
  advance st; (* opening quote *)
  let c =
    match peek st with
    | Some '\\' ->
      advance st;
      lex_escape st where
    | Some c ->
      advance st;
      c
    | None -> error where "unterminated character literal"
  in
  (match peek st with
   | Some '\'' -> advance st
   | _ -> error where "unterminated character literal");
  Token.Char_lit c

let lex_string st : Token.t =
  let where = loc st in
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      Buffer.add_char buf (lex_escape st where);
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
    | None -> error where "unterminated string literal"
  in
  go ();
  Token.String_lit (Buffer.contents buf)

(* Operators and punctuation, longest match first.  Past the end of the
   source the lookahead reads NUL, which starts no operator. *)
let lex_operator st : Token.t =
  let at k = if st.pos + k < String.length st.src then st.src.[st.pos + k] else '\000' in
  let op n s =
    st.pos <- st.pos + n;
    Token.Op s
  in
  match at 0, at 1, at 2 with
  | '<', '<', '=' -> op 3 "<<="
  | '>', '>', '=' -> op 3 ">>="
  | '=', '=', _ -> op 2 "=="
  | '!', '=', _ -> op 2 "!="
  | '<', '=', _ -> op 2 "<="
  | '>', '=', _ -> op 2 ">="
  | '&', '&', _ -> op 2 "&&"
  | '|', '|', _ -> op 2 "||"
  | '+', '+', _ -> op 2 "++"
  | '-', '-', _ -> op 2 "--"
  | '+', '=', _ -> op 2 "+="
  | '-', '=', _ -> op 2 "-="
  | '*', '=', _ -> op 2 "*="
  | '/', '=', _ -> op 2 "/="
  | '%', '=', _ -> op 2 "%="
  | '<', '<', _ -> op 2 "<<"
  | '>', '>', _ -> op 2 ">>"
  | '&', '=', _ -> op 2 "&="
  | '|', '=', _ -> op 2 "|="
  | '^', '=', _ -> op 2 "^="
  | '+', _, _ -> op 1 "+"
  | '-', _, _ -> op 1 "-"
  | '*', _, _ -> op 1 "*"
  | '/', _, _ -> op 1 "/"
  | '%', _, _ -> op 1 "%"
  | '=', _, _ -> op 1 "="
  | '<', _, _ -> op 1 "<"
  | '>', _, _ -> op 1 ">"
  | '!', _, _ -> op 1 "!"
  | '.', _, _ -> op 1 "."
  | ',', _, _ -> op 1 ","
  | ';', _, _ -> op 1 ";"
  | '(', _, _ -> op 1 "("
  | ')', _, _ -> op 1 ")"
  | '{', _, _ -> op 1 "{"
  | '}', _, _ -> op 1 "}"
  | '[', _, _ -> op 1 "["
  | ']', _, _ -> op 1 "]"
  | '?', _, _ -> op 1 "?"
  | ':', _, _ -> op 1 ":"
  | '&', _, _ -> op 1 "&"
  | '|', _, _ -> op 1 "|"
  | '^', _, _ -> op 1 "^"
  | '~', _, _ -> op 1 "~"
  | c, _, _ -> error (loc st) "unexpected character %C" c

let tokenize (src : string) : Token.spanned list =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let out = ref [] in
  let rec go () =
    skip_ws_and_comments st;
    let l = loc st in
    match peek st with
    | None -> out := { Token.tok = Eof; loc = l } :: !out
    | Some c when is_digit c -> emit l (lex_number st)
    | Some c when is_ident_start c ->
      let start = st.pos in
      let n = String.length src in
      while st.pos < n && is_ident src.[st.pos] do st.pos <- st.pos + 1 done;
      let name = String.sub src start (st.pos - start) in
      let tok = if Token.is_keyword name then Token.Kw name else Token.Ident name in
      emit l tok
    | Some '\'' -> emit l (lex_char st)
    | Some '"' -> emit l (lex_string st)
    | Some _ -> emit l (lex_operator st)
  and emit l tok =
    out := { Token.tok; loc = l } :: !out;
    go ()
  in
  go ();
  List.rev !out
