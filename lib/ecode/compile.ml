(* Closure compilation of typed Ecode — the dynamic-code-generation stage.

   Every typed node becomes an OCaml closure over a small runtime frame;
   composition happens once, at compile time, so executing a transformation
   is a chain of direct calls with no name resolution, no operator dispatch
   and no type tests beyond unwrapping values.  This plays the role of
   PBIO/Ecode's native code generation (DESIGN.md, substitution S1).

   The lowering is typed: an expression compiles to the closure shape of
   its class.  Int-class expressions (int, unsigned, char, bool, enum)
   become [frame -> int], conditions [frame -> bool], float expressions
   [frame -> float], and only strings and structured values travel as
   [Value.t].  Locals live unboxed in per-class frame arrays.  An lvalue
   is resolved once, at compile time, to a {!place}: a local slot, or the
   composed navigation to its container plus a final field or index step,
   so a store is one direct write.  Record and array assignment still
   copies (C struct assignment), through a copier built for the lvalue's
   type. *)

open Pbio
open Typecheck

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* A slot's class picks its array: int-class locals in [ints] (bools as
   0/1, chars as codes), floats in [floats], strings in [vals].  Each
   array has an entry per slot; a slot only uses the array of its class.
   [ret] carries a user function's return value out of its body. *)
type frame = {
  ints : int array;
  floats : float array;
  vals : Value.t array;
  params : Value.t array;
  mutable ret : Value.t;
}

exception Brk
exception Cont
exception Ret

type ecode_fn = Value.t array -> unit
(* Run the program against an array of parameter values (same order as the
   [params] given to {!Typecheck.check}). *)

let new_frame nlocals params =
  let n = max 1 nlocals in
  { ints = Array.make n 0; floats = Array.make n 0.0; vals = Array.make n (Value.Int 0);
    params; ret = Value.Int 0 }

(* --- helpers ------------------------------------------------------------- *)

let u32 n = n land 0xFFFF_FFFF

let vtrue = Value.Bool true
let vfalse = Value.Bool false
let vbool b = if b then vtrue else vfalse

let string_of_value (v : Value.t) : string =
  match v with
  | String s -> s
  | Int n | Uint n -> string_of_int n
  | Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%g" x
  | Char c -> String.make 1 c
  | Bool b -> if b then "true" else "false"
  | Enum (case, _) -> case
  | Record _ | Array _ -> Value.to_string v

(* The enum value with numeric value [n] (its first case), shared. *)
let enum_case (en : Ptype.enum) : int -> Value.t =
  let cases = List.map (fun (case, n) -> (n, Value.Enum (case, n))) en.Ptype.cases in
  fun n ->
    let rec find = function
      | [] -> runtime_error "no case of enum %s has value %d" en.Ptype.ename n
      | (m, v) :: rest -> if m = n then v else find rest
    in
    find cases

(* An int-class result as a value of its static type. *)
let int_boxer (ty : ty) : int -> Value.t =
  match ty with
  | Basic Int -> fun n -> Value.Int n
  | Basic Uint -> fun n -> Value.Uint n
  | Basic Char -> fun n -> Value.Char (Char.chr n)
  | Basic Bool -> fun n -> vbool (n <> 0)
  | Basic (Enum en) -> enum_case en
  | _ -> assert false

let box_int (ty : ty) (c : frame -> int) : frame -> Value.t =
  match ty with
  | Basic Int -> fun f -> Value.Int (c f)
  | _ ->
    let box = int_boxer ty in
    fun f -> box (c f)

(* Bring [n] into the range of an int-class type, as storing it would. *)
let norm_int (ty : ty) : int -> int =
  match ty with
  | Basic Uint -> u32
  | Basic Char -> fun n -> n land 0xff
  | Basic Bool -> fun n -> if n <> 0 then 1 else 0
  | Basic (Enum en) ->
    let case = enum_case en in
    fun n -> Value.to_int (case n)
  | _ -> Fun.id

(* Store into an array slot; a store past the end grows the array, giving
   each gap slot a fresh default from [make]. *)
let store_index make a i v =
  let d = Value.dyn a in
  if i >= 0 && i < d.len then d.items.(i) <- v
  else if i > d.len then Value.array_set ~fill:(make ()) a i v
  else Value.array_set a i v

let rec seq : (frame -> unit) list -> frame -> unit = function
  | [] -> fun _ -> ()
  | [ a ] -> a
  | a :: rest ->
    let b = seq rest in
    fun f -> a f; b f

(* --- places -------------------------------------------------------------- *)

(* Where an lvalue lives.  A field or index place holds the composed
   navigation to its container; an intermediate index one past the end
   appends a single fresh default on the way.  An lvalue ending in
   [[ix].f] is an element-field place: a store with [ix] one past the end
   appends one element built around the stored value (so
   [old.list[n].f = x] extends the list without building a default for
   [f] that the store would replace). *)
type place =
  | Pint of int (* int-class local slot *)
  | Pfloat of int (* float local slot *)
  | Pval of int (* string local slot *)
  | Pparam of int
  | Pfield of (frame -> Value.t) * int
  | Pindex of (frame -> Value.t) * (frame -> int) * (unit -> Value.t)
  (* container, index, default for gap slots *)
  | Pelem_field of (frame -> Value.t) * (frame -> int) * int * (unit -> Value.t)
                   * (Value.t -> Value.t)
  (* array, index, field, default element, element around a field value *)

(* Compiled user function bodies, patched after all bodies are compiled so
   that (mutual) recursion works. *)
type ctx = {
  impls : (frame -> unit) array;
  funs : tfun array;
}

(* --- expressions --------------------------------------------------------- *)

let rec compile_value cx (e : texpr) : frame -> Value.t =
  match e.n with
  | Tconst v ->
    (match v with
     | Record _ | Array _ ->
       let cp = Value.copier e.ty in
       fun _ -> cp v
     | _ -> fun _ -> v)
  | Tlocal slot ->
    (match cls_of e.ty with
     | Cint -> box_int e.ty (fun f -> f.ints.(slot))
     | Cfloat -> fun f -> Value.Float f.floats.(slot)
     | Cstring | Cother -> fun f -> f.vals.(slot))
  | Tparam slot -> fun f -> f.params.(slot)
  | Tfield (base, idx) ->
    let cb = compile_value cx base in
    fun f -> Value.field_at (cb f) idx
  | Tindex (base, ix) ->
    let cb = compile_value cx base in
    let ci = compile_int cx ix in
    fun f ->
      let i = ci f in
      Value.array_get (cb f) i
  | Tarith (Sconcat, a, b) ->
    let ca = compile_value cx a and cb = compile_value cx b in
    fun f -> Value.String (string_of_value (ca f) ^ string_of_value (cb f))
  | Tcmp _ | Tand _ | Tor _ | Tnot _ | Tcoerce (To_bool, _) ->
    let c = compile_bool cx e in
    fun f -> vbool (c f)
  | Tcoerce (To_string, a) ->
    let ca = compile_value cx a in
    fun f -> Value.String (string_of_value (ca f))
  | Tcoerce (To_enum en, a) ->
    let ca = compile_int cx a and case = enum_case en in
    fun f -> case (ca f)
  | Tcond (c, a, b) ->
    let cc = compile_bool cx c in
    let ca = compile_value cx a and cb = compile_value cx b in
    fun f -> if cc f then ca f else cb f
  | Tufcall (idx, args) -> compile_ufcall cx idx args
  | Tassign (lv, rhs) ->
    (match compile_place cx lv with
     | Pint slot -> box_int lv.lty (assign_int_slot cx slot rhs)
     | Pfloat slot ->
       let c = compile_float cx rhs in
       fun f ->
         let x = c f in
         f.floats.(slot) <- x;
         Value.Float x
     | p -> store_value cx lv.lty p rhs)
  | Tarith _ | Tneg _ | Tfneg _ | Tbnot _ | Tcall _ | Tcoerce _ | Tincr _ ->
    (match cls_of e.ty with
     | Cint -> box_int e.ty (compile_int cx e)
     | Cfloat ->
       let c = compile_float cx e in
       fun f -> Value.Float (c f)
     | Cstring | Cother -> assert false)

and compile_int cx (e : texpr) : frame -> int =
  match e.n with
  | Tconst v ->
    let n = Value.to_int v in
    fun _ -> n
  | Tlocal slot -> fun f -> f.ints.(slot)
  | Tparam _ | Tfield _ | Tindex _ | Tufcall _ ->
    let c = compile_value cx e in
    fun f -> Value.to_int (c f)
  | Tarith (op, a, b) ->
    let ca = compile_int cx a and cb = compile_int cx b in
    (match op with
     | Iadd -> fun f -> ca f + cb f
     | Isub -> fun f -> ca f - cb f
     | Imul -> fun f -> ca f * cb f
     | Idiv ->
       fun f ->
         let d = cb f in
         if d = 0 then runtime_error "division by zero";
         ca f / d
     | Imod ->
       fun f ->
         let d = cb f in
         if d = 0 then runtime_error "modulo by zero";
         ca f mod d
     | Iband -> fun f -> ca f land cb f
     | Ibor -> fun f -> ca f lor cb f
     | Ibxor -> fun f -> ca f lxor cb f
     | Ishl -> fun f -> ca f lsl (cb f land 63)
     | Ishr -> fun f -> ca f asr (cb f land 63)
     | Fadd | Fsub | Fmul | Fdiv | Sconcat -> assert false)
  | Tcmp _ | Tand _ | Tor _ | Tnot _ | Tcoerce (To_bool, _) ->
    let c = compile_bool cx e in
    fun f -> if c f then 1 else 0
  | Tneg a ->
    let ca = compile_int cx a in
    fun f -> -ca f
  | Tbnot a ->
    let ca = compile_int cx a in
    fun f -> lnot (ca f)
  | Tcond (c, a, b) ->
    let cc = compile_bool cx c in
    let ca = compile_int cx a and cb = compile_int cx b in
    fun f -> if cc f then ca f else cb f
  | Tcall (bi, args) ->
    (match bi, args with
     | Bstrlen, [ a ] ->
       let ca = compile_value cx a in
       fun f -> String.length (Value.to_string_exn (ca f))
     | Blen, [ a ] ->
       let ca = compile_value cx a in
       fun f -> Value.array_len (ca f)
     | Babs, [ a ] ->
       let ca = compile_int cx a in
       fun f -> abs (ca f)
     | (Bmin_int | Bmax_int), [ a; b ] ->
       let ca = compile_int cx a and cb = compile_int cx b in
       if bi = Bmin_int then fun f -> Int.min (ca f) (cb f)
       else fun f -> Int.max (ca f) (cb f)
     | _ -> assert false)
  | Tcoerce (co, a) ->
    let ca =
      match a.ty with
      | Basic Float ->
        let c = compile_float cx a in
        fun f -> int_of_float (c f)
      | _ -> compile_int cx a
    in
    (match co with
     | To_int -> ca
     | To_uint -> fun f -> u32 (ca f)
     | To_char -> fun f -> ca f land 0xff
     | To_enum en ->
       let case = enum_case en in
       fun f -> Value.to_int (case (ca f))
     | To_bool | To_float | To_string -> assert false)
  | Tassign (lv, rhs) ->
    (match compile_place cx lv with
     | Pint slot -> assign_int_slot cx slot rhs
     | p ->
       let st = store_value cx lv.lty p rhs in
       fun f -> Value.to_int (st f))
  | Tincr { pre; delta; lv; _ } -> compile_incr_int cx ~pre ~delta lv
  | Tfneg _ -> assert false

and compile_bool cx (e : texpr) : frame -> bool =
  match e.n with
  | Tconst v ->
    let b = Value.to_bool v in
    fun _ -> b
  | Tcmp (op, kind, a, b) -> compile_cmp cx op kind a b
  | Tand (a, b) ->
    let ca = compile_bool cx a and cb = compile_bool cx b in
    fun f -> ca f && cb f
  | Tor (a, b) ->
    let ca = compile_bool cx a and cb = compile_bool cx b in
    fun f -> ca f || cb f
  | Tnot a ->
    let ca = compile_bool cx a in
    fun f -> not (ca f)
  | Tcoerce (To_bool, a) ->
    (match cls_of a.ty with
     | Cfloat ->
       let ca = compile_float cx a in
       fun f -> ca f <> 0.0
     | Cint ->
       let ca = compile_int cx a in
       fun f -> ca f <> 0
     | Cstring | Cother ->
       let ca = compile_value cx a in
       fun f -> Value.to_bool (ca f))
  | Tparam _ | Tfield _ | Tindex _ ->
    let c = compile_value cx e in
    fun f -> Value.to_bool (c f)
  | _ ->
    (match cls_of e.ty with
     | Cint ->
       let c = compile_int cx e in
       fun f -> c f <> 0
     | Cfloat | Cstring | Cother ->
       let c = compile_value cx e in
       fun f -> Value.to_bool (c f))

and compile_float cx (e : texpr) : frame -> float =
  match e.n with
  | Tconst v ->
    let x = Value.to_float v in
    fun _ -> x
  | Tlocal slot when cls_of e.ty = Cfloat -> fun f -> f.floats.(slot)
  | Tarith (op, a, b) ->
    let ca = compile_float cx a and cb = compile_float cx b in
    (match op with
     | Fadd -> fun f -> ca f +. cb f
     | Fsub -> fun f -> ca f -. cb f
     | Fmul -> fun f -> ca f *. cb f
     | Fdiv -> fun f -> ca f /. cb f
     | _ -> assert false)
  | Tfneg a ->
    let ca = compile_float cx a in
    fun f -> -.ca f
  | Tcond (c, a, b) ->
    let cc = compile_bool cx c in
    let ca = compile_float cx a and cb = compile_float cx b in
    fun f -> if cc f then ca f else cb f
  | Tcall (bi, args) ->
    let unary g =
      let ca = compile_float cx (List.hd args) in
      fun f -> g (ca f)
    in
    let binary g =
      let ca = compile_float cx (List.nth args 0) and cb = compile_float cx (List.nth args 1) in
      fun f -> g (ca f) (cb f)
    in
    (match bi with
     | Bfabs -> unary Float.abs
     | Bfloor -> unary Float.floor
     | Bceil -> unary Float.ceil
     | Bsqrt -> unary Float.sqrt
     | Bmin_float -> binary Float.min
     | Bmax_float -> binary Float.max
     | Bpow -> binary Float.pow
     | Bstrlen | Blen | Babs | Bmin_int | Bmax_int -> assert false)
  | Tcoerce (To_float, a) when cls_of a.ty = Cint ->
    let ca = compile_int cx a in
    fun f -> float_of_int (ca f)
  | Tcoerce (To_float, a) when cls_of a.ty = Cfloat -> compile_float cx a
  | Tassign (lv, rhs) when cls_of lv.lty = Cfloat ->
    (match compile_place cx lv with
     | Pfloat slot ->
       let c = compile_float cx rhs in
       fun f ->
         let x = c f in
         f.floats.(slot) <- x;
         x
     | p ->
       let st = store_value cx lv.lty p rhs in
       fun f -> Value.to_float (st f))
  | Tincr { pre; delta; lv; is_float = true } -> compile_incr_float cx ~pre ~delta lv
  | _ ->
    let c = compile_value cx e in
    fun f -> Value.to_float (c f)

and compile_cmp cx op kind a b : frame -> bool =
  match kind with
  | Kint ->
    let ca = compile_int cx a and cb = compile_int cx b in
    (match op with
     | Ceq -> fun f -> ca f = cb f
     | Cne -> fun f -> ca f <> cb f
     | Clt -> fun f -> ca f < cb f
     | Cle -> fun f -> ca f <= cb f
     | Cgt -> fun f -> ca f > cb f
     | Cge -> fun f -> ca f >= cb f)
  | Kfloat ->
    let ca = compile_float cx a and cb = compile_float cx b in
    (match op with
     | Ceq -> fun f -> ca f = cb f
     | Cne -> fun f -> ca f <> cb f
     | Clt -> fun f -> ca f < cb f
     | Cle -> fun f -> ca f <= cb f
     | Cgt -> fun f -> ca f > cb f
     | Cge -> fun f -> ca f >= cb f)
  | Kstring ->
    let ca = compile_value cx a and cb = compile_value cx b in
    let scmp : string -> string -> bool =
      match op with
      | Ceq -> ( = ) | Cne -> ( <> ) | Clt -> ( < )
      | Cle -> ( <= ) | Cgt -> ( > ) | Cge -> ( >= )
    in
    fun f -> scmp (Value.to_string_exn (ca f)) (Value.to_string_exn (cb f))
  | Kvalue ->
    let ca = compile_value cx a and cb = compile_value cx b in
    (match op with
     | Ceq -> fun f -> Value.equal (ca f) (cb f)
     | Cne -> fun f -> not (Value.equal (ca f) (cb f))
     | Clt | Cle | Cgt | Cge -> assert false (* rejected by typecheck *))

(* Arguments are evaluated left to right in the caller's frame, straight
   into the parameter slots of a fresh callee frame. *)
and compile_ufcall cx idx args : frame -> Value.t =
  let tf = cx.funs.(idx) in
  let nlocals = tf.tf_nlocals in
  let setters =
    Array.of_list
      (List.mapi
         (fun slot (a : texpr) : (frame -> frame -> unit) ->
            match cls_of a.ty with
            | Cint ->
              let c = compile_int cx a in
              fun f callee -> callee.ints.(slot) <- c f
            | Cfloat ->
              let c = compile_float cx a in
              fun f callee -> callee.floats.(slot) <- c f
            | Cstring | Cother ->
              let c = compile_value cx a in
              fun f callee -> callee.vals.(slot) <- c f)
         args)
  in
  let fallthrough =
    match tf.tf_ret with
    | Some ty -> Value.default ty
    | None -> Value.Int 0 (* void: result is never observed *)
  in
  fun f ->
    let callee = new_frame nlocals [||] in
    Array.iter (fun set -> set f callee) setters;
    callee.ret <- fallthrough;
    (try cx.impls.(idx) callee with Ret -> ());
    callee.ret

and compile_place cx (lv : tlval) : place =
  let rec go cont = function
    | [] -> assert false
    | [ Sfield i ] -> Pfield (cont, i)
    | [ Sindex (ix, (Record _ as elem_ty)); Sfield i ] ->
      Pelem_field
        (cont, compile_int cx ix, i, Value.maker elem_ty, Value.maker_around elem_ty i)
    | [ Sindex (ix, elem_ty) ] -> Pindex (cont, compile_int cx ix, Value.maker elem_ty)
    | Sfield i :: rest -> go (fun f -> Value.field_at (cont f) i) rest
    | Sindex (ix, elem_ty) :: rest ->
      let ci = compile_int cx ix and make = Value.maker elem_ty in
      go
        (fun f ->
           let a = cont f in
           let i = ci f in
           if i = Value.array_len a then Value.array_push a (make ());
           Value.array_get a i)
        rest
  in
  match lv.base, lv.steps with
  | Lbase_local slot, [] ->
    (match cls_of lv.lty with
     | Cint -> Pint slot
     | Cfloat -> Pfloat slot
     | Cstring | Cother -> Pval slot)
  | Lbase_param slot, [] -> Pparam slot
  | Lbase_local slot, steps -> go (fun f -> f.vals.(slot)) steps
  | Lbase_param slot, steps -> go (fun f -> f.params.(slot)) steps

and assign_int_slot cx slot rhs : frame -> int =
  let c = compile_int cx rhs in
  fun f ->
    let n = c f in
    f.ints.(slot) <- n;
    n

(* Store [rhs] at a boxed place and return the stored value.  The right
   side is evaluated before the place is navigated.  Record and array
   values are copied. *)
and store_value cx (lty : ty) (p : place) (rhs : texpr) : frame -> Value.t =
  let cr = compile_value cx rhs in
  let cr =
    match lty with
    | Record _ | Array _ ->
      let cp = Value.copier lty in
      fun f -> cp (cr f)
    | Basic _ -> cr
  in
  match p with
  | Pval slot ->
    fun f ->
      let v = cr f in
      f.vals.(slot) <- v;
      v
  | Pparam slot ->
    fun f ->
      let v = cr f in
      f.params.(slot) <- v;
      v
  | Pfield (cont, i) ->
    fun f ->
      let v = cr f in
      Value.set_at (cont f) i v;
      v
  | Pindex (cont, ci, make) ->
    fun f ->
      let v = cr f in
      let a = cont f in
      store_index make a (ci f) v;
      v
  | Pelem_field (cont, ci, fi, _, around) ->
    fun f ->
      let v = cr f in
      let a = cont f in
      let i = ci f in
      if i = Value.array_len a then Value.array_push a (around v)
      else Value.set_at (Value.array_get a i) fi v;
      v
  | Pint _ | Pfloat _ -> assert false

(* Replace the value at a boxed place by [g] of it; the closure returns
   the old value.  The place is navigated once. *)
and update_boxed (p : place) (g : Value.t -> Value.t) : frame -> Value.t =
  match p with
  | Pval slot ->
    fun f ->
      let old = f.vals.(slot) in
      f.vals.(slot) <- g old;
      old
  | Pparam slot ->
    fun f ->
      let old = f.params.(slot) in
      f.params.(slot) <- g old;
      old
  | Pfield (cont, i) ->
    fun f ->
      let r = cont f in
      let old = Value.field_at r i in
      Value.set_at r i (g old);
      old
  | Pindex (cont, ci, _) ->
    fun f ->
      let a = cont f in
      let i = ci f in
      let old = Value.array_get a i in
      Value.array_set a i (g old);
      old
  | Pelem_field (cont, ci, fi, make, _) ->
    fun f ->
      let a = cont f in
      let i = ci f in
      if i = Value.array_len a then Value.array_push a (make ());
      let r = Value.array_get a i in
      let old = Value.field_at r fi in
      Value.set_at r fi (g old);
      old
  | Pint _ | Pfloat _ -> assert false

(* [++]/[--] on an int-class place: the new value is brought into the
   place's type, like any store; the result is the new or the old value. *)
and compile_incr_int cx ~pre ~delta (lv : tlval) : frame -> int =
  let norm = norm_int lv.lty in
  let next old = norm (old + delta) in
  match compile_place cx lv with
  | Pint slot ->
    fun f ->
      let old = f.ints.(slot) in
      let nv = next old in
      f.ints.(slot) <- nv;
      if pre then nv else old
  | p ->
    let box = int_boxer lv.lty in
    let upd = update_boxed p (fun v -> box (next (Value.to_int v))) in
    fun f ->
      let old = Value.to_int (upd f) in
      if pre then next old else old

and compile_incr_float cx ~pre ~delta (lv : tlval) : frame -> float =
  let d = float_of_int delta in
  match compile_place cx lv with
  | Pfloat slot ->
    fun f ->
      let old = f.floats.(slot) in
      let nv = old +. d in
      f.floats.(slot) <- nv;
      if pre then nv else old
  | p ->
    let upd = update_boxed p (fun v -> Value.Float (Value.to_float v +. d)) in
    fun f ->
      let old = Value.to_float (upd f) in
      if pre then old +. d else old

(* An expression evaluated for its effect only: stores into unboxed slots
   skip boxing the result. *)
let compile_effect cx (e : texpr) : frame -> unit =
  match e.n with
  | Tassign (lv, rhs) ->
    (match compile_place cx lv with
     | Pint slot ->
       let c = compile_int cx rhs in
       fun f -> f.ints.(slot) <- c f
     | Pfloat slot ->
       let c = compile_float cx rhs in
       fun f -> f.floats.(slot) <- c f
     | p ->
       let st = store_value cx lv.lty p rhs in
       fun f -> ignore (st f))
  | _ ->
    (match cls_of e.ty with
     | Cint ->
       let c = compile_int cx e in
       fun f -> ignore (c f)
     | Cfloat | Cstring | Cother ->
       let c = compile_value cx e in
       fun f -> ignore (c f))

(* --- statements ---------------------------------------------------------- *)

let rec compile_stmt cx (s : tstmt) : frame -> unit =
  match s with
  | TSnop -> fun _ -> ()
  | TSexpr e -> compile_effect cx e
  | TSif (c, t, None) ->
    let cc = compile_bool cx c in
    let ct = compile_stmt cx t in
    fun f -> if cc f then ct f
  | TSif (c, t, Some e) ->
    let cc = compile_bool cx c in
    let ct = compile_stmt cx t in
    let ce = compile_stmt cx e in
    fun f -> if cc f then ct f else ce f
  | TSwhile (c, body) ->
    let cc = compile_bool cx c in
    let cb = compile_body cx body in
    fun f -> (try while cc f do cb f done with Brk -> ())
  | TSdo (body, c) ->
    let cb = compile_body cx body in
    let cc = compile_bool cx c in
    fun f -> (try while cb f; cc f do () done with Brk -> ())
  | TSfor (init, cond, step, body) ->
    let ci = match init with Some s -> compile_stmt cx s | None -> fun _ -> () in
    let cc = match cond with Some c -> compile_bool cx c | None -> fun _ -> true in
    let cs = match step with Some e -> compile_effect cx e | None -> fun _ -> () in
    let cb = compile_body cx body in
    fun f ->
      ci f;
      (try
         while cc f do
           cb f;
           cs f
         done
       with Brk -> ())
  | TSswitch (scrutinee, arms) ->
    let csc = compile_int cx scrutinee in
    let arms = Array.of_list arms in
    let n = Array.length arms in
    (* from.(j) runs arm j and falls through every later arm *)
    let from = Array.make (n + 1) (fun _ -> ()) in
    for j = n - 1 downto 0 do
      from.(j) <- seq (List.map (compile_stmt cx) arms.(j).t_body @ [ from.(j + 1) ])
    done;
    let table = Hashtbl.create 8 in
    Array.iteri
      (fun i (a : tarm) -> List.iter (fun v -> Hashtbl.replace table v i) a.t_labels)
      arms;
    let default_idx =
      let rec find i =
        if i >= n then n else if arms.(i).t_default then i else find (i + 1)
      in
      find 0
    in
    fun f ->
      let start =
        match Hashtbl.find table (csc f) with
        | i -> i
        | exception Not_found -> default_idx
      in
      (try from.(start) f with Brk -> ())
  | TSblock ss -> seq (List.map (compile_stmt cx) ss)
  | TSreturn None -> fun _ -> raise Ret
  | TSreturn (Some e) ->
    let ce = compile_value cx e in
    fun f ->
      f.ret <- ce f;
      raise Ret
  | TSbreak -> fun _ -> raise Brk
  | TScontinue -> fun _ -> raise Cont

and compile_body cx (body : tstmt) : frame -> unit =
  let cb = compile_stmt cx body in
  fun f -> try cb f with Cont -> ()

let compile (prog : tprog) : ecode_fn =
  (* compile user functions first; call sites reference [cx.impls] at call
     time, so (mutual) recursion resolves after patching *)
  let cx = { impls = Array.make (Array.length prog.tfuns) (fun _ -> ()); funs = prog.tfuns } in
  Array.iteri
    (fun i (tf : tfun) -> cx.impls.(i) <- seq (List.map (compile_stmt cx) tf.tf_body))
    prog.tfuns;
  let body = seq (List.map (compile_stmt cx) prog.body) in
  let nlocals = prog.nlocals in
  let nparams = List.length prog.params in
  fun params ->
    if Array.length params <> nparams then
      runtime_error "expected %d parameters, got %d" nparams (Array.length params);
    let f = new_frame nlocals params in
    try body f with Ret -> ()
