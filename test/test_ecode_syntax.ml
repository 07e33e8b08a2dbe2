(* Lexer, parser and typechecker tests for the Ecode language. *)

open Pbio

let parse_ok src =
  match Ecode.parse src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err src =
  match Ecode.parse src with
  | Ok _ -> Alcotest.failf "expected parse error for %S" src
  | Error _ -> ()

let check_err ~params src =
  match Ecode.compile ~params src with
  | Ok _ -> Alcotest.failf "expected type error for %S" src
  | Error _ -> ()

let check_ok ~params src : unit =
  match Ecode.compile ~params src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile failed for %S: %s" src e

let test_lexer_tokens () =
  let toks = Ecode.Lexer.tokenize "x += 1; /* c */ y++ // line\n\"s\\n\" 'a' 1.5e2 <= >=" in
  let kinds = List.map (fun (s : Ecode.Token.spanned) -> s.Ecode.Token.tok) toks in
  Alcotest.(check bool) "has ident" true (List.mem (Ecode.Token.Ident "x") kinds);
  Alcotest.(check bool) "has +=" true (List.mem (Ecode.Token.Op "+=") kinds);
  Alcotest.(check bool) "has ++" true (List.mem (Ecode.Token.Op "++") kinds);
  Alcotest.(check bool) "string escape" true (List.mem (Ecode.Token.String_lit "s\n") kinds);
  Alcotest.(check bool) "char" true (List.mem (Ecode.Token.Char_lit 'a') kinds);
  Alcotest.(check bool) "float exp" true (List.mem (Ecode.Token.Float_lit 150.0) kinds);
  Alcotest.(check bool) "<=" true (List.mem (Ecode.Token.Op "<=") kinds)

let token = Alcotest.testable Ecode.Token.pp ( = )

let token_stream src =
  List.map (fun (s : Ecode.Token.spanned) -> s.Ecode.Token.tok) (Ecode.Lexer.tokenize src)

(* Every operator, every keyword, and the maximal-munch boundaries. *)
let test_lexer_token_stream () =
  let open Ecode.Token in
  let check src expected =
    Alcotest.(check (list token)) src (expected @ [ Eof ]) (token_stream src)
  in
  let operators =
    [ "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-=";
      "*="; "/="; "%="; "<<"; ">>"; "&="; "|="; "^="; "+"; "-"; "*"; "/"; "%";
      "="; "<"; ">"; "!"; "."; ","; ";"; "("; ")"; "{"; "}"; "["; "]"; "?"; ":";
      "&"; "|"; "^"; "~" ]
  in
  List.iter (fun o -> check o [ Op o ]) operators;
  check (String.concat " " operators) (List.map (fun o -> Op o) operators);
  List.iter (fun k -> check k [ Kw k ]) keywords;
  check (String.concat "\n" keywords) (List.map (fun k -> Kw k) keywords);
  (* a keyword prefix does not make a keyword *)
  check "iff int_x returns _do do2" [ Ident "iff"; Ident "int_x"; Ident "returns"; Ident "_do"; Ident "do2" ];
  (* maximal munch *)
  check "a<<=b" [ Ident "a"; Op "<<="; Ident "b" ];
  check "a>>=b" [ Ident "a"; Op ">>="; Ident "b" ];
  check "a--b" [ Ident "a"; Op "--"; Ident "b" ];
  check "x+=1" [ Ident "x"; Op "+="; Int_lit 1 ];
  check "a+++b" [ Ident "a"; Op "++"; Op "+"; Ident "b" ];
  check "a<<<=b" [ Ident "a"; Op "<<"; Op "<="; Ident "b" ];
  check "a&&&b" [ Ident "a"; Op "&&"; Op "&"; Ident "b" ];
  check "!==" [ Op "!="; Op "=" ];
  check "a->b" [ Ident "a"; Op "-"; Op ">"; Ident "b" ];
  check "x[i]=-1;" [ Ident "x"; Op "["; Ident "i"; Op "]"; Op "="; Op "-"; Int_lit 1; Op ";" ];
  (* an operator prefix at the very end of the source *)
  check "a<" [ Ident "a"; Op "<" ];
  check "a<<" [ Ident "a"; Op "<<" ];
  check "a>>" [ Ident "a"; Op ">>" ]

let test_lexer_errors () =
  let expect_lex_error src =
    try
      ignore (Ecode.Lexer.tokenize src);
      Alcotest.failf "expected lexical error for %S" src
    with Ecode.Lexer.Error _ -> ()
  in
  expect_lex_error "\"unterminated";
  expect_lex_error "'x";
  expect_lex_error "/* unterminated";
  expect_lex_error "int x = $;"

let test_parser_statements () =
  ignore (parse_ok "int x = 1, y; x = y;");
  ignore (parse_ok "if (x) y = 1; else { y = 2; z = 3; }");
  ignore (parse_ok "for (i = 0; i < 10; i++) { s = s + 1; }");
  ignore (parse_ok "for (;;) break;");
  ignore (parse_ok "while (a && b || !c) continue;");
  ignore (parse_ok "do { x--; } while (x > 0);");
  ignore (parse_ok "return;");
  ignore (parse_ok "return x + 1;");
  ignore (parse_ok ";;;");
  ignore (parse_ok "x = a ? b : c;");
  ignore (parse_ok "v.field[3].sub = f(1, 2) % 3;")

let test_parser_errors () =
  parse_err "int = 3;";
  parse_err "x = ;";
  parse_err "if x) y = 1;";
  parse_err "for (i = 0; i < 10; i++ { }";
  parse_err "x = (1 + 2;";
  parse_err "x = a ? b;";
  parse_err "do { } while (1)" (* missing ; *)

let test_precedence_shape () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match (parse_ok "x = 1 + 2 * 3;").Ecode.Ast.main with
  | [ { Ecode.Ast.s = Expr { e = Assign (_, _, { e = Binop (Add, _, rhs); _ }); _ }; _ } ] ->
    (match rhs.Ecode.Ast.e with
     | Binop (Mul, _, _) -> ()
     | _ -> Alcotest.fail "expected multiplication on the right")
  | _ -> Alcotest.fail "unexpected parse shape"

(* --- typechecking ----------------------------------------------------------- *)

let msg = Ptype_dsl.format_of_string_exn "format Msg { int load; float ratio; string tag; }"
let params = [ ("m", Ptype.Record msg) ]

let test_typecheck_ok () =
  (check_ok ~params "int x; x = m.load + 1; m.ratio = x / 2.0;");
  (check_ok ~params "m.tag = m.tag + \"!\" + m.load;");
  (check_ok ~params "bool b = m.load > 0 && m.ratio < 1.0;");
  (check_ok ~params "m.load = int(m.ratio * 10.0);")

let test_typecheck_errors () =
  check_err ~params "x = 1;"; (* unknown variable *)
  check_err ~params "m.nope = 1;"; (* unknown field *)
  check_err ~params "m.load.x = 1;"; (* field of non-record *)
  check_err ~params "m.load[0] = 1;"; (* index of non-array *)
  check_err ~params "m.tag = 3;"; (* int to string without cast *)
  check_err ~params "int x = \"s\";"; (* string to int *)
  check_err ~params "if (m.tag) m.load = 1;"; (* string condition *)
  check_err ~params "1 = 2;"; (* not an lvalue *)
  check_err ~params "m.tag++;"; (* ++ on string *)
  check_err ~params "int x; int x;"; (* redeclaration in same scope *)
  check_err ~params "m.load = strlen(3);"; (* strlen of int *)
  check_err ~params "m.load = min(1);"; (* arity *)
  check_err ~params "m.load = nosuchfn(1);"

let test_scoping () =
  (* a block-local variable is invisible outside its block *)
  check_err ~params "{ int x = 1; } m.load = x;";
  (* shadowing in an inner scope is fine *)
  (check_ok ~params "int x = 1; { int x = 2; m.load = x; }")

let test_record_assignment_shapes () =
  let a = Ptype_dsl.format_of_string_exn "record P { int x; int y; } format A { P p; P q; }" in
  let params = [ ("a", Ptype.Record a) ] in
  (check_ok ~params "a.p = a.q;");
  let b =
    Ptype_dsl.format_of_string_exn
      "record P { int x; int y; } record Q { int x; } format B { P p; Q q; }"
  in
  let params_b = [ ("b", Ptype.Record b) ] in
  check_err ~params:params_b "b.p = b.q;" (* different shapes *)

(* Pretty-printing: printing a parsed program and re-parsing it reaches a
   fixed point, and the reprint executes identically. *)
let corpus =
  [
    Echo.Wire_formats.response_v2_to_v1_code;
    Echo.Wire_formats.event_v2_to_v1_code;
    B2b.Formats.retail_to_supplier_order_code;
    B2b.Formats.supplier_to_retail_status_code;
    {| int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
       void hop(int a) { if (a > 3) return; }
       int i, acc = 0;
       for (i = 0; i < 10; i++) { acc += fib(i); if (acc > 50) break; }
       do { acc--; } while (acc > 40);
       switch (acc % 3) { case 0: acc = 1; case 1: acc = 2; break; default: acc = 3; }
       string s = "q\"x" + 'y' + 1.5 + true;
       acc = (acc > 0) ? -acc : ~acc; |};
  ]

let test_pp_fixed_point () =
  List.iter
    (fun src ->
       let p1 = parse_ok src in
       let s1 = Ecode.Pp.program_to_string p1 in
       let p2 =
         match Ecode.parse s1 with
         | Ok p -> p
         | Error e -> Alcotest.failf "reprint does not parse: %s\n%s" e s1
       in
       let s2 = Ecode.Pp.program_to_string p2 in
       Alcotest.(check string) "print . parse fixed point" s1 s2)
    corpus

(* parse -> Pp -> parse over the corpus: Pp parenthesises every
   expression, so the reprint's parse prints the same, and a table of
   operator chains pins every precedence level and left associativity. *)
let test_parse_pp_roundtrip () =
  let expr_of src =
    match (parse_ok ("x = " ^ src ^ ";")).Ecode.Ast.main with
    | [ { Ecode.Ast.s = Expr { e = Assign (_, _, rhs); _ }; _ } ] ->
      Fmt.str "%a" Ecode.Pp.pp_expr rhs
    | _ -> Alcotest.failf "unexpected parse shape for %s" src
  in
  List.iter
    (fun (src, expected) ->
       Alcotest.(check string) src expected (expr_of src);
       Alcotest.(check string) ("reparsed " ^ src) expected (expr_of expected))
    [
      ("a || b && c | d ^ e & f == g < h << i + j * k",
       "(a || (b && (c | (d ^ (e & (f == (g < (h << (i + (j * k))))))))))");
      ("a * b + c << d < e == f & g ^ h | i && j || k",
       "((((((((((a * b) + c) << d) < e) == f) & g) ^ h) | i) && j) || k)");
      ("a - b - c", "((a - b) - c)");
      ("a / b % c * d", "(((a / b) % c) * d)");
      ("a << b >> c", "((a << b) >> c)");
      ("a < b >= c", "((a < b) >= c)");
      ("a != b == c", "((a != b) == c)");
      ("a || b || c", "((a || b) || c)");
      ("-a * !b + ~c", "(((-a) * (!b)) + (~c))");
      ("a ? b : c ? d : e", "(a ? b : (c ? d : e))");
    ];
  List.iter
    (fun src ->
       let s1 = Ecode.Pp.program_to_string (parse_ok src) in
       let s2 = Ecode.Pp.program_to_string (parse_ok s1) in
       Alcotest.(check string) "parse . pp . parse" s1 s2)
    corpus

let test_pp_preserves_semantics () =
  (* run the Figure 5 transformation from its pretty-printed source *)
  let src = Echo.Wire_formats.response_v2_to_v1_code in
  let printed = Ecode.Pp.program_to_string (parse_ok src) in
  let original =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1 src)
  in
  let reprinted =
    Helpers.check_ok
      (Ecode.compile_xform ~src:Helpers.response_v2 ~dst:Helpers.response_v1 printed)
  in
  let v = Helpers.sample_v2 9 in
  Alcotest.check Helpers.value "same result" (original v) (reprinted v)

let suite =
  [
    Alcotest.test_case "lexer: token kinds" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: token stream" `Quick test_lexer_token_stream;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser: statement forms" `Quick test_parser_statements;
    Alcotest.test_case "parser: errors" `Quick test_parser_errors;
    Alcotest.test_case "parser: precedence" `Quick test_precedence_shape;
    Alcotest.test_case "typecheck: accepts valid programs" `Quick test_typecheck_ok;
    Alcotest.test_case "typecheck: rejects invalid programs" `Quick test_typecheck_errors;
    Alcotest.test_case "typecheck: scoping" `Quick test_scoping;
    Alcotest.test_case "typecheck: record assignment" `Quick test_record_assignment_shapes;
    Alcotest.test_case "pp: fixed point on corpus" `Quick test_pp_fixed_point;
    Alcotest.test_case "pp: preserves semantics" `Quick test_pp_preserves_semantics;
    Alcotest.test_case "parser: precedence round-trip through pp" `Quick
      test_parse_pp_roundtrip;
  ]
