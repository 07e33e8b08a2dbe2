(* Unit tests for Pbio.Value: dynamic values, accessors, defaults, deep
   operations and length-field synchronisation. *)

open Pbio

let test_accessors () =
  Alcotest.(check int) "int" 42 (Value.to_int (Value.Int 42));
  Alcotest.(check int) "uint" 7 (Value.to_int (Value.Uint 7));
  Alcotest.(check int) "char" 65 (Value.to_int (Value.Char 'A'));
  Alcotest.(check int) "bool" 1 (Value.to_int (Value.Bool true));
  Alcotest.(check int) "enum" 5 (Value.to_int (Value.Enum ("blue", 5)));
  Alcotest.(check (float 1e-9)) "float of int" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check bool) "bool of int" true (Value.to_bool (Value.Int (-2)));
  Alcotest.(check bool) "bool of float" false (Value.to_bool (Value.Float 0.0));
  Alcotest.(check string) "string" "hi" (Value.to_string_exn (Value.String "hi"))

let test_accessor_type_errors () =
  let expect_type_error f =
    try
      ignore (f ());
      Alcotest.fail "expected Type_error"
    with Value.Type_error _ -> ()
  in
  expect_type_error (fun () -> Value.to_int (Value.String "x"));
  expect_type_error (fun () -> Value.to_int (Value.Float 1.0));
  expect_type_error (fun () -> Value.to_float (Value.String "x"));
  expect_type_error (fun () -> Value.to_string_exn (Value.Int 1));
  expect_type_error (fun () -> Value.get_field (Value.Int 1) "f");
  expect_type_error (fun () -> Value.get_field (Value.record []) "missing");
  expect_type_error (fun () -> Value.array_get (Value.record []) 0)

let test_record_fields () =
  let r = Value.record [ ("a", Value.Int 1); ("b", Value.String "x") ] in
  Alcotest.(check bool) "has a" true (Value.has_field r "a");
  Alcotest.(check bool) "no c" false (Value.has_field r "c");
  Value.set_field r "a" (Value.Int 9);
  Alcotest.(check int) "updated" 9 (Value.to_int (Value.get_field r "a"));
  Alcotest.check Helpers.value "field_at" (Value.String "x") (Value.field_at r 1);
  Value.set_at r 1 (Value.String "y");
  Alcotest.(check string) "set_at" "y" (Value.to_string_exn (Value.get_field r "b"))

let test_array_ops () =
  let a = Value.array_of_list [ Value.Int 1; Value.Int 2 ] in
  Alcotest.(check int) "len" 2 (Value.array_len a);
  Alcotest.(check int) "get" 2 (Value.to_int (Value.array_get a 1));
  Value.array_push a (Value.Int 3);
  Alcotest.(check int) "push len" 3 (Value.array_len a);
  Value.array_set a 1 (Value.Int 20);
  Alcotest.(check int) "set" 20 (Value.to_int (Value.array_get a 1));
  (* growth beyond the end fills the gap *)
  Value.array_set a 5 (Value.Int 50);
  Alcotest.(check int) "grown len" 6 (Value.array_len a);
  Alcotest.(check int) "grown end" 50 (Value.to_int (Value.array_get a 5));
  Value.array_truncate a 2;
  Alcotest.(check int) "truncated" 2 (Value.array_len a);
  (try
     ignore (Value.array_get a 2);
     Alcotest.fail "expected out of bounds"
   with Value.Type_error _ -> ())

let test_array_growth_uses_model () =
  (* the default of a variable array carries the element type as a model;
     growth without an explicit fill produces well-shaped fresh elements *)
  let fmt =
    Ptype.record "R"
      [
        Ptype.field "n" Ptype.int_;
        Ptype.field "xs" (Ptype.array_var "n" (Ptype.Record Helpers.contact));
      ]
  in
  let v = Value.default_record fmt in
  let xs = Value.get_field v "xs" in
  let elem = Value.fill_for (Value.dyn xs) in
  Value.array_set xs 2 elem;
  Alcotest.(check int) "grown to 3" 3 (Value.array_len xs);
  (* the gap elements are records with the contact shape *)
  let gap = Value.array_get xs 0 in
  Alcotest.(check bool) "gap conforms" true
    (Value.conforms (Ptype.Record Helpers.contact) gap);
  Value.sync_lengths fmt v;
  Alcotest.(check int) "length resynced" 3 (Value.to_int (Value.get_field v "n"))

let test_copy_is_deep () =
  let inner = Value.record [ ("x", Value.Int 1) ] in
  let v = Value.record [ ("inner", inner); ("xs", Value.array_of_list [ Value.Int 5 ]) ] in
  let c = Value.copy v in
  Value.set_field inner "x" (Value.Int 99);
  Value.array_set (Value.get_field v "xs") 0 (Value.Int 50);
  Alcotest.(check int) "nested record isolated" 1
    (Value.to_int (Value.get_field (Value.get_field c "inner") "x"));
  Alcotest.(check int) "array isolated" 5
    (Value.to_int (Value.array_get (Value.get_field c "xs") 0))

let test_equal () =
  let v1 = Helpers.sample_v2 3 in
  let v2 = Helpers.sample_v2 3 in
  Alcotest.(check bool) "structurally equal" true (Value.equal v1 v2);
  Value.set_field v2 "channel" (Value.String "other");
  Alcotest.(check bool) "detects difference" false (Value.equal v1 v2);
  Alcotest.(check bool) "different shapes" false
    (Value.equal (Value.Int 1) (Value.Float 1.0))

let test_defaults () =
  let fmt =
    Ptype_dsl.format_of_string_exn
      {|format D {
          int a = 7; float b = 2.5; string s = "hey"; bool t = true; char c = 'z';
          int plain;
          int n;
          int xs[n];
          int fixed[3];
        }|}
  in
  let v = Value.default_record fmt in
  Alcotest.(check int) "int default" 7 (Value.to_int (Value.get_field v "a"));
  Alcotest.(check (float 1e-9)) "float default" 2.5 (Value.to_float (Value.get_field v "b"));
  Alcotest.(check string) "string default" "hey" (Value.to_string_exn (Value.get_field v "s"));
  Alcotest.(check bool) "bool default" true (Value.to_bool (Value.get_field v "t"));
  Alcotest.(check int) "char default" (Char.code 'z') (Value.to_int (Value.get_field v "c"));
  Alcotest.(check int) "plain zero" 0 (Value.to_int (Value.get_field v "plain"));
  Alcotest.(check int) "var array empty" 0 (Value.array_len (Value.get_field v "xs"));
  Alcotest.(check int) "fixed array sized" 3 (Value.array_len (Value.get_field v "fixed"));
  Alcotest.(check bool) "default conforms" true (Value.conforms (Ptype.Record fmt) v)

let test_of_const_enum () =
  let e = { Ptype.ename = "c"; cases = [ ("on", 1); ("off", 0) ] } in
  Alcotest.check Helpers.value "by name" (Value.Enum ("off", 0))
    (Value.of_const (Ptype.Cenum "off") ~ty:(Ptype.Enum e));
  Alcotest.check Helpers.value "by value" (Value.Enum ("on", 1))
    (Value.of_const (Ptype.Cint 1) ~ty:(Ptype.Enum e));
  (try
     ignore (Value.of_const (Ptype.Cenum "nope") ~ty:(Ptype.Enum e));
     Alcotest.fail "expected Type_error"
   with Value.Type_error _ -> ())

let test_conforms () =
  let v = Helpers.sample_v2 4 in
  Alcotest.(check bool) "v2 sample conforms to v2" true
    (Value.conforms (Ptype.Record Helpers.response_v2) v);
  Alcotest.(check bool) "v2 sample does not conform to v1" false
    (Value.conforms (Ptype.Record Helpers.response_v1) v);
  (* negative uint breaks conformance *)
  Alcotest.(check bool) "uint must be non-negative" false
    (Value.conforms Ptype.uint (Value.Uint (-1)))

let test_sync_lengths () =
  let v = Helpers.sample_v2 5 in
  Value.set_field v "member_count" (Value.Int 0);
  Value.sync_lengths Helpers.response_v2 v;
  Alcotest.(check int) "resynced" 5 (Value.to_int (Value.get_field v "member_count"))

let test_pp_smoke () =
  let s = Value.to_string (Helpers.sample_v2 2) in
  Alcotest.(check bool) "mentions field" true
    (Helpers.contains s "member_count")

let test_sizeof_unencoded_model () =
  (* the C-layout model behind Table 1's "unencoded" rows: 4-byte ints and
     bools, 8-byte floats, 1-byte chars, strings with a NUL terminator *)
  let fmt =
    Ptype_dsl.format_of_string_exn
      "format S { int a; bool b; float f; char c; string s; }"
  in
  let v =
    Value.record
      [ ("a", Value.Int 1); ("b", Value.Bool true); ("f", Value.Float 2.0);
        ("c", Value.Char 'x'); ("s", Value.String "abcde") ]
  in
  Alcotest.(check int) "4+4+8+1+(5+1)" 23 (Sizeof.unencoded fmt v);
  (* variable arrays scale linearly with their element count *)
  let base = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 0) in
  let one = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 1) in
  let ten = Sizeof.unencoded Helpers.response_v2 (Helpers.sample_v2 10) in
  Alcotest.(check int) "linear in members" (base + (10 * (one - base))) ten

(* --- properties ---------------------------------------------------------------- *)

(* No record entry array, entry or array buffer of [a] is one of [b]'s. *)
let rec shares_nothing (a : Value.t) (b : Value.t) =
  match a, b with
  | Record e1, Record e2 ->
    e1 != e2
    && Array.for_all2 (fun (x : Value.entry) y -> x != y && shares_nothing x.v y.v) e1 e2
  | Array d1, Array d2 ->
    d1 != d2
    && (d1.len = 0 || d1.items != d2.items)
    && List.for_all (fun i -> shares_nothing d1.items.(i) d2.items.(i)) (List.init d1.len Fun.id)
  | _ -> true

(* [copy] and the type-specialised [copier] are equal, deep copies *)
let prop_copy_equal =
  QCheck.Test.make ~name:"copy is equal" ~count:200 Helpers.arb_format_and_value
    (fun (r, v) ->
       let c = Value.copier (Ptype.Record r) v in
       Value.equal v (Value.copy v) && Value.equal v c && shares_nothing v c)

(* [default_record] and the type-specialised [maker] agree; each call of
   a maker builds a fresh value *)
let prop_default_conforms =
  QCheck.Test.make ~name:"default value conforms to its format" ~count:200
    Helpers.arb_format (fun r ->
        let make = Value.maker (Ptype.Record r) in
        let a = make () and b = make () in
        Value.conforms (Ptype.Record r) (Value.default_record r)
        && Value.equal a (Value.default_record r)
        && shares_nothing a b)

(* A record type of [n] fields mixing scalars, a declared default
   constant, a nested record and arrays, so the builders' arity ladder is
   walked rung by rung (7 reaches the generic fallback). *)
let ladder_record n =
  let contact =
    Ptype.record "C" [ Ptype.field "host" Ptype.string_; Ptype.field "port" Ptype.int_ ]
  in
  let kind i : Ptype.field =
    let name = Printf.sprintf "f%d" i in
    match i mod 5 with
    | 0 -> Ptype.field ~default:(Ptype.Cint 7) name Ptype.int_
    | 1 -> Ptype.field name Ptype.string_
    | 2 -> Ptype.field name (Ptype.Record contact)
    | 3 -> Ptype.field ~default:(Ptype.Cfloat 1.5) name Ptype.float_
    | _ -> Ptype.field name (Ptype.array_fixed 2 (Ptype.Record contact))
  in
  Ptype.record (Printf.sprintf "R%d" n) (List.init n kind)

let test_builders_every_arity () =
  for n = 1 to 7 do
    let r = ladder_record n in
    let ty = Ptype.Record r in
    let what s = Printf.sprintf "%d fields: %s" n s in
    let make = Value.maker ty in
    let a = make () and b = make () in
    Alcotest.check Helpers.value (what "maker = default") (Value.default_record r) a;
    Alcotest.(check bool) (what "fresh values") true (shares_nothing a b);
    (* every scalar field moved off its default *)
    let v = Value.copy a in
    List.iteri
      (fun i (f : Ptype.field) ->
         match f.ftype with
         | Basic Int -> Value.set_field v f.fname (Value.Int (100 + i))
         | Basic Float -> Value.set_field v f.fname (Value.Float (float_of_int i))
         | Basic String -> Value.set_field v f.fname (Value.String (string_of_int i))
         | _ -> ())
      r.fields;
    let c = Value.copier ty v in
    Alcotest.check Helpers.value (what "copier = copy") (Value.copy v) c;
    Alcotest.(check bool) (what "copier copies deeply") true (shares_nothing v c);
    (* a record of another arity falls back to [copy] *)
    let other = Value.default_record (ladder_record (n + 1)) in
    Alcotest.check Helpers.value (what "shape mismatch copies") other (Value.copier ty other);
    (* [maker_around ty i x] is the default with field [i] set to [x] *)
    List.iteri
      (fun i (f : Ptype.field) ->
         let x = Value.copy (Value.get_field v f.fname) in
         let expected = Value.default_record r in
         Value.set_field expected f.fname x;
         let got = Value.maker_around ty i x in
         Alcotest.check Helpers.value (what ("maker_around " ^ f.fname)) expected got;
         Alcotest.(check bool) (what "holds the value itself") true
           (Value.get_field got f.fname == x))
      r.fields
  done

let prop_generated_value_conforms =
  QCheck.Test.make ~name:"generated values conform" ~count:200
    Helpers.arb_format_and_value (fun (r, v) -> Value.conforms (Ptype.Record r) v)

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "accessor type errors" `Quick test_accessor_type_errors;
    Alcotest.test_case "record fields" `Quick test_record_fields;
    Alcotest.test_case "array operations" `Quick test_array_ops;
    Alcotest.test_case "array growth model" `Quick test_array_growth_uses_model;
    Alcotest.test_case "copy is deep" `Quick test_copy_is_deep;
    Alcotest.test_case "equality" `Quick test_equal;
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "of_const on enums" `Quick test_of_const_enum;
    Alcotest.test_case "conforms" `Quick test_conforms;
    Alcotest.test_case "sync_lengths" `Quick test_sync_lengths;
    Alcotest.test_case "pretty-printer" `Quick test_pp_smoke;
    Alcotest.test_case "sizeof: unencoded C-layout model" `Quick test_sizeof_unencoded_model;
    Helpers.qtest prop_copy_equal;
    Helpers.qtest prop_default_conforms;
    Helpers.qtest prop_generated_value_conforms;
    Alcotest.test_case "maker, copier, maker_around at every arity" `Quick
      test_builders_every_arity;
  ]
