(* Dynamic record values carried by the messaging layer.

   A value mirrors a {!Ptype.t}: records are arrays of mutable named entries
   (mutability is what lets compiled Ecode transformations write into a
   target message in place), arrays are growable so transformation code can
   append entries one at a time, as the paper's Figure 5 code does. *)

type t =
  | Int of int
  | Uint of int
  | Float of float
  | Char of char
  | Bool of bool
  | Enum of string * int (* case name, numeric value *)
  | String of string
  | Record of entry array
  | Array of dynarray

and entry = {
  name : string;
  mutable v : t;
}

and dynarray = {
  mutable items : t array;
  mutable len : int;
  mutable model : t option;
  (* A model element used to fill gaps when the array grows and no explicit
     fill is supplied (e.g. by the untyped Ecode interpreter); [default]
     seeds it from the element type. *)
}

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Constructors *)

let record fields = Record (Array.of_list (List.map (fun (name, v) -> { name; v }) fields))

let array_of_list vs =
  let items = Array.of_list vs in
  let model = if Array.length items > 0 then Some (items.(0)) else None in
  Array { items; len = Array.length items; model }

let empty_array ?model () = Array { items = [||]; len = 0; model }

(* Accessors *)

let to_int = function
  | Int n | Uint n | Enum (_, n) -> n
  | Char c -> Char.code c
  | Bool b -> if b then 1 else 0
  | v -> type_error "expected integer value, got %s"
           (match v with
            | Float _ -> "float" | String _ -> "string"
            | Record _ -> "record" | Array _ -> "array"
            | Int _ | Uint _ | Enum _ | Char _ | Bool _ -> assert false)

let to_float = function
  | Float x -> x
  | Int n | Uint n | Enum (_, n) -> float_of_int n
  | Char c -> float_of_int (Char.code c)
  | Bool b -> if b then 1.0 else 0.0
  | _ -> type_error "expected numeric value"

let to_bool = function
  | Bool b -> b
  | Int n | Uint n | Enum (_, n) -> n <> 0
  | Char c -> c <> '\x00'
  | Float x -> x <> 0.0
  | _ -> type_error "expected boolean value"

let to_string_exn = function
  | String s -> s
  | _ -> type_error "expected string value"

(* The navigation accessors below are small and [@inline]; their error
   paths live out of line, so the inlined fast path is a tag test and a
   load. *)

let[@inline never] not_a_record () = type_error "expected record value"
let[@inline never] not_an_array () = type_error "expected array value"

let[@inline never] out_of_bounds i len =
  type_error "array index %d out of bounds (len %d)" i len

let[@inline] entries = function
  | Record es -> es
  | _ -> not_a_record ()

let[@inline] dyn = function
  | Array d -> d
  | _ -> not_an_array ()

(* Record field access by name (slow path; compiled code resolves indexes
   once and uses {!field_at}/{!set_at}). *)

let field_index es name =
  let rec go i =
    if i >= Array.length es then None
    else if es.(i).name = name then Some i
    else go (i + 1)
  in
  go 0

let get_field v name =
  let es = entries v in
  match field_index es name with
  | Some i -> es.(i).v
  | None -> type_error "record has no field %S" name

let set_field v name x =
  let es = entries v in
  match field_index es name with
  | Some i -> es.(i).v <- x
  | None -> type_error "record has no field %S" name

let has_field v name = field_index (entries v) name <> None

let[@inline] field_at v i = (entries v).(i).v
let[@inline] set_at v i x = (entries v).(i).v <- x

(* Deep copy (also used to fill growing arrays). *)
let rec copy = function
  | (Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _) as v -> v
  | Record es -> Record (Array.map (fun e -> { e with v = copy e.v }) es)
  | Array d ->
    let items = Array.init d.len (fun i -> copy d.items.(i)) in
    Array { items; len = d.len; model = Option.map copy d.model }

(* Array access.  [array_set] grows the array on writes one past the end so
   that transformation code can build a target list incrementally. *)

let[@inline] array_len v = (dyn v).len

let[@inline] array_get v i =
  let d = dyn v in
  if i < 0 || i >= d.len then out_of_bounds i d.len;
  d.items.(i)

let grow d fill wanted =
  let cap = Array.length d.items in
  if wanted > cap then begin
    let cap' = max wanted (max 4 (cap * 2)) in
    let items' = Array.make cap' fill in
    Array.blit d.items 0 items' 0 d.len;
    d.items <- items'
  end

let array_push v x =
  let d = dyn v in
  grow d x (d.len + 1);
  d.items.(d.len) <- x;
  d.len <- d.len + 1

let fill_for d =
  match d.model with
  | Some m -> copy m
  | None -> if d.len > 0 then copy d.items.(d.len - 1) else Int 0

(* Each gap slot gets its own element: the first takes [fill], the rest
   copies of it, so a later write through one gap slot cannot show through
   another.  An append ([i] = length) leaves no gap and builds no fill. *)
let array_set ?fill v i x =
  let d = dyn v in
  if i < 0 then type_error "negative array index %d" i;
  if i >= d.len then begin
    grow d x (i + 1);
    if i > d.len then begin
      let fill = match fill with Some f -> f | None -> fill_for d in
      d.items.(d.len) <- fill;
      for j = d.len + 1 to i - 1 do d.items.(j) <- copy fill done
    end;
    d.len <- i + 1
  end;
  d.items.(i) <- x

let array_truncate v n =
  let d = dyn v in
  if n < 0 || n > d.len then type_error "truncate length %d out of range" n;
  d.len <- n

(* Deep operations *)

let rec equal v1 v2 =
  match v1, v2 with
  | Int a, Int b | Uint a, Uint b -> a = b
  | Float a, Float b -> a = b
  | Char a, Char b -> a = b
  | Bool a, Bool b -> a = b
  | Enum (n1, v1), Enum (n2, v2) -> n1 = n2 && v1 = v2
  | String a, String b -> a = b
  | Record e1, Record e2 ->
    Array.length e1 = Array.length e2
    && Array.for_all2 (fun a b -> a.name = b.name && equal a.v b.v) e1 e2
  | Array d1, Array d2 ->
    d1.len = d2.len
    && (let rec go i = i >= d1.len || (equal d1.items.(i) d2.items.(i) && go (i + 1)) in
        go 0)
  | (Int _ | Uint _ | Float _ | Char _ | Bool _ | Enum _ | String _
    | Record _ | Array _), _ -> false

let rec pp ppf = function
  | Int n -> Fmt.int ppf n
  | Uint n -> Fmt.pf ppf "%uu" n
  | Float x -> Fmt.float ppf x
  | Char c -> Fmt.pf ppf "%C" c
  | Bool b -> Fmt.bool ppf b
  | Enum (n, v) -> Fmt.pf ppf "%s(%d)" n v
  | String s -> Fmt.pf ppf "%S" s
  | Record es ->
    Fmt.pf ppf "@[<hv 1>{%a}@]"
      (Fmt.array ~sep:Fmt.semi (fun ppf e -> Fmt.pf ppf "%s=%a" e.name pp e.v))
      es
  | Array d ->
    Fmt.pf ppf "@[<hv 1>[%a]@]"
      (Fmt.iter ~sep:Fmt.semi
         (fun f d -> for i = 0 to d.len - 1 do f d.items.(i) done)
         pp)
      d

let to_string v = Fmt.str "%a" pp v

(* Default values, honouring per-field default constants. *)

let of_const (c : Ptype.const) ~(ty : Ptype.basic) =
  match c, ty with
  | Cint n, Int -> Int n
  | Cint n, Uint -> Uint n
  | Cint n, Float -> Float (float_of_int n)
  | Cfloat x, Float -> Float x
  | Cchar c, Char -> Char c
  | Cbool b, Bool -> Bool b
  | Cint n, Bool -> Bool (n <> 0)
  | Cstring s, String -> String s
  | Cenum case, Enum e ->
    (match List.assoc_opt case e.cases with
     | Some n -> Enum (case, n)
     | None -> type_error "enum %s has no case %S" e.ename case)
  | Cint n, Enum e ->
    (match List.find_opt (fun (_, v) -> v = n) e.cases with
     | Some (case, _) -> Enum (case, n)
     | None -> type_error "enum %s has no case with value %d" e.ename n)
  | _ -> type_error "default constant does not fit field type"

let zero_basic : Ptype.basic -> t = function
  | Int -> Int 0
  | Uint -> Uint 0
  | Float -> Float 0.0
  | Char -> Char '\x00'
  | Bool -> Bool false
  | String -> String ""
  | Enum e ->
    (match e.cases with
     | (case, n) :: _ -> Enum (case, n)
     | [] -> type_error "enum %s has no cases" e.ename)

let rec default (ty : Ptype.t) : t =
  match ty with
  | Basic b -> zero_basic b
  | Record r -> default_record r
  | Array { size = Fixed n; elem } ->
    let items = Array.init n (fun _ -> default elem) in
    Array { items; len = n; model = Some (default elem) }
  | Array { size = Length_field _; elem } -> empty_array ~model:(default elem) ()

and default_record (r : Ptype.record) : t =
  let entry (f : Ptype.field) = { name = f.fname; v = field_default default f } in
  Record (Array.of_list (List.map entry r.fields))

(* A field's declared default constant, else [dflt] of its type. *)
and field_default dflt (f : Ptype.field) =
  match f.fdefault, f.ftype with
  | Some c, Basic b -> of_const c ~ty:b
  | Some _, _ -> type_error "default constant on complex field %S" f.fname
  | None, ty -> dflt ty

(* Straight-line record construction, shared by {!maker}, {!maker_around}
   and {!copier}.  [record_builder n entry] builds records of [n] entries,
   entry [i] from [entry i x], in index order.  Small arities allocate the
   entry array as a literal: every entry gets its final value through an
   initializing store, with no [Array.make] (a C call), no placeholder pass
   and no write barrier. *)
let record_builder n (entry : int -> 'a -> entry) : 'a -> t =
  match n with
  | 0 -> fun _ -> Record [||]
  | 1 ->
    let e0 = entry 0 in
    fun x -> Record [| e0 x |]
  | 2 ->
    let e0 = entry 0 and e1 = entry 1 in
    fun x ->
      let a0 = e0 x in
      let a1 = e1 x in
      Record [| a0; a1 |]
  | 3 ->
    let e0 = entry 0 and e1 = entry 1 and e2 = entry 2 in
    fun x ->
      let a0 = e0 x in
      let a1 = e1 x in
      let a2 = e2 x in
      Record [| a0; a1; a2 |]
  | 4 ->
    let e0 = entry 0 and e1 = entry 1 and e2 = entry 2 and e3 = entry 3 in
    fun x ->
      let a0 = e0 x in
      let a1 = e1 x in
      let a2 = e2 x in
      let a3 = e3 x in
      Record [| a0; a1; a2; a3 |]
  | 5 ->
    let e0 = entry 0 and e1 = entry 1 and e2 = entry 2 and e3 = entry 3 and e4 = entry 4 in
    fun x ->
      let a0 = e0 x in
      let a1 = e1 x in
      let a2 = e2 x in
      let a3 = e3 x in
      let a4 = e4 x in
      Record [| a0; a1; a2; a3; a4 |]
  | 6 ->
    let e0 = entry 0 and e1 = entry 1 and e2 = entry 2 and e3 = entry 3 and e4 = entry 4
    and e5 = entry 5 in
    fun x ->
      let a0 = e0 x in
      let a1 = e1 x in
      let a2 = e2 x in
      let a3 = e3 x in
      let a4 = e4 x in
      let a5 = e5 x in
      Record [| a0; a1; a2; a3; a4; a5 |]
  | _ ->
    let es = Array.init n entry in
    fun x -> Record (Array.map (fun e -> e x) es)

(* Type-specialised default and copy.  Both walk the type once, when
   built; the returned closure then touches only the value.  Scalars are
   immutable and shared; a variable array's growth model is built once and
   shared by every array the closure makes, as models are only ever read
   through [fill_for], which copies. *)

let rec maker (ty : Ptype.t) : unit -> t =
  match ty with
  | Basic b ->
    let z = zero_basic b in
    fun () -> z
  | Record r ->
    let fields = Array.of_list r.fields in
    record_builder (Array.length fields) (fun i -> field_entry fields.(i))
  | Array { size = Fixed n; elem } ->
    let mk = maker elem and model = Some (default elem) in
    fun () -> Array { items = Array.init n (fun _ -> mk ()); len = n; model }
  | Array { size = Length_field _; elem } ->
    let model = Some (default elem) in
    fun () -> Array { items = [||]; len = 0; model }

(* A fresh entry holding the field's default; the argument is ignored. *)
and field_entry : 'a. Ptype.field -> 'a -> entry =
  fun f ->
  let name = f.fname in
  match f.fdefault, f.ftype with
  | None, ((Record _ | Array _) as ty) ->
    let mk = maker ty in
    fun _ -> { name; v = mk () }
  | _ ->
    let z = field_default default f in
    fun _ -> { name; v = z }

let maker_around (ty : Ptype.t) i : t -> t =
  match ty with
  | Record r when i >= 0 && i < List.length r.fields ->
    let fields = Array.of_list r.fields in
    record_builder (Array.length fields) (fun j ->
        if j = i then
          let name = fields.(j).fname in
          fun v -> { name; v }
        else field_entry fields.(j))
  | _ -> invalid_arg "Value.maker_around: not a record type with that field"

let rec copier (ty : Ptype.t) : t -> t =
  match ty with
  | Basic _ -> Fun.id
  | Record r ->
    let fields = Array.of_list r.fields in
    let n = Array.length fields in
    let build =
      record_builder n (fun i ->
          match fields.(i).ftype with
          | Basic _ ->
            fun es ->
              let e = Array.unsafe_get es i in
              { name = e.name; v = e.v }
          | ty ->
            let cp = copier ty in
            fun es ->
              let e = Array.unsafe_get es i in
              { name = e.name; v = cp e.v })
    in
    (function
      | Record es when Array.length es = n -> build es
      | v -> copy v)
  | Array { elem = Basic _; _ } ->
    (function
      | Array d -> Array { items = Array.sub d.items 0 d.len; len = d.len; model = d.model }
      | v -> copy v)
  | Array { elem; _ } ->
    let cp = copier elem and model = Some (default elem) in
    (function
      | Array d -> Array { items = Array.init d.len (fun i -> cp d.items.(i)); len = d.len; model }
      | v -> copy v)

(* Check that a value conforms to a type description. *)

let rec conforms (ty : Ptype.t) (v : t) : bool =
  match ty, v with
  | Basic Int, Int _ -> true
  | Basic Uint, Uint n -> n >= 0
  | Basic Float, Float _ -> true
  | Basic Char, Char _ -> true
  | Basic Bool, Bool _ -> true
  | Basic String, String _ -> true
  | Basic (Enum e), Enum (case, n) -> List.assoc_opt case e.cases = Some n
  | Record r, Record es ->
    List.length r.fields = Array.length es
    && List.for_all2
      (fun (f : Ptype.field) (e : entry) -> f.fname = e.name && conforms f.ftype e.v)
      r.fields (Array.to_list es)
  | Array { elem; size }, Array d ->
    (match size with Fixed n -> d.len = n | Length_field _ -> true)
    && (let rec go i = i >= d.len || (conforms elem d.items.(i) && go (i + 1)) in
        go 0)
  | (Basic _ | Record _ | Array _), _ -> false

(* Variable-array length fields must agree with the actual array lengths;
   [sync_lengths] fixes up the integer fields from the arrays (used by
   encoders and by the morphing pipeline after a transformation runs). *)

(* Does a value of this type hold a variable array anywhere?  Subtrees
   without one have no length to sync and are not walked. *)
let rec has_var_array (ty : Ptype.t) : bool =
  match ty with
  | Basic _ -> false
  | Record r -> List.exists (fun (f : Ptype.field) -> has_var_array f.ftype) r.fields
  | Array { size = Length_field _; _ } -> true
  | Array { size = Fixed _; elem } -> has_var_array elem

let rec sync_lengths (r : Ptype.record) (v : t) : unit = sync_fields (entries v) 0 r.fields

and sync_fields es i (fields : Ptype.field list) =
  match fields with
  | [] -> ()
  | f :: rest ->
    (match f.ftype with
     | Basic _ -> ()
     | Record r' -> if has_var_array f.ftype then sync_lengths r' es.(i).v
     | Array { elem; size } ->
       (match size with
        | Fixed _ -> ()
        | Length_field name ->
          let n = array_len es.(i).v in
          (match field_index es name with
           | Some j ->
             es.(j).v <- (match es.(j).v with Uint _ -> Uint n | _ -> Int n)
           | None -> type_error "missing length field %S" name));
       (match elem with
        | Record r' when has_var_array elem ->
          let d = dyn es.(i).v in
          for k = 0 to d.len - 1 do sync_lengths r' d.items.(k) done
        | Basic _ | Record _ | Array _ -> ()));
    sync_fields es (i + 1) rest
