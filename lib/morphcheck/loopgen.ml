(* Loop-bearing Ecode transforms for the engines oracle.

   {!Evolve} rollbacks are straight-line field copies; the transforms here
   walk a variable-length record array the way the paper's Figure 5 code
   does, so the oracle reaches the compiled engine's loop, lvalue and
   typed-expression paths.  Each case draws a random subset of statement
   templates (always at least one), with random constants, operators and
   thresholds, over fixed [src] / [dst] formats:

     filtered   counter-driven appends of whole sub-records (Figure 5)
     incdec     pre/post ++ and -- used as expressions, incl. as an index
     compound   += -= *= /= %= on fields, locals and array elements
     nested     index stores two levels deep, with appends at both levels
                and a store past the end that leaves a gap
     switch     switch with fallthrough, break and continue
     funcs      user functions with int and float parameters, recursion
     loops      while / do-while with break and continue, the ternary
     appends    scalar appends that convert (int into a float array, float
                into an int array) and whole-record appends from the
                output, whose source is then changed

   The templates stay inside the language subset on which the two engines
   agree: compound assignments and ++/-- only target elements that
   exist. *)

open Pbio
open Rgen

let sub = Ptype.record "Sub" [ Ptype.field "p" Ptype.int_; Ptype.field "s" Ptype.string_ ]

let item =
  Ptype.record "Item"
    [
      Ptype.field "a" Ptype.int_;
      Ptype.field "x" Ptype.float_;
      Ptype.field "keep" Ptype.bool_;
      Ptype.field "c" Ptype.char_;
      Ptype.field "u" Ptype.uint;
      Ptype.field "sub" (Ptype.Record sub);
    ]

let src =
  Ptype.record "LoopSrc"
    [
      Ptype.field "tag" Ptype.string_;
      Ptype.field "n" Ptype.int_;
      Ptype.field "items" (Ptype.array_var "n" (Ptype.Record item));
      Ptype.field "bias" Ptype.int_;
    ]

let kept =
  Ptype.record "Kept"
    [ Ptype.field "sub" (Ptype.Record sub); Ptype.field "a" Ptype.int_; Ptype.field "c" Ptype.char_ ]

let bucket =
  Ptype.record "Bucket"
    [
      Ptype.field "id" Ptype.int_;
      Ptype.field "vlen" Ptype.int_;
      Ptype.field "vals" (Ptype.array_var "vlen" Ptype.int_);
    ]

let dst =
  Ptype.record "LoopDst"
    [
      Ptype.field "tag" Ptype.string_;
      Ptype.field "total" Ptype.int_;
      Ptype.field "fsum" Ptype.float_;
      Ptype.field "umix" Ptype.uint;
      Ptype.field "last" Ptype.char_;
      Ptype.field "flag" Ptype.bool_;
      Ptype.field "kept_len" Ptype.int_;
      Ptype.field "kept" (Ptype.array_var "kept_len" (Ptype.Record kept));
      Ptype.field "drop_len" Ptype.int_;
      Ptype.field "dropped" (Ptype.array_var "drop_len" (Ptype.Record kept));
      Ptype.field "blen" Ptype.int_;
      Ptype.field "buckets" (Ptype.array_var "blen" (Ptype.Record bucket));
      Ptype.field "hist" (Ptype.array_fixed 4 Ptype.int_);
      Ptype.field "log_len" Ptype.int_;
      Ptype.field "log" (Ptype.array_var "log_len" Ptype.int_);
      Ptype.field "flog_len" Ptype.int_;
      Ptype.field "flog" (Ptype.array_var "flog_len" Ptype.float_);
    ]

type case = {
  features : string list; (* template names, in program order *)
  code : string;
}

let features =
  [ "filtered"; "incdec"; "compound"; "nested"; "switch"; "funcs"; "loops"; "appends" ]

let pf = Printf.sprintf

(* A non-negative residue of item i's [a] field. *)
let residue m = pf "((new.items[i].a %% %d) + %d) %% %d" m m m

let filtered : string t =
  let* m = int_range 2 5 in
  let* r = int_range 0 (m - 1) in
  let* cmp = oneofl [ "=="; "!="; "<="; ">" ] in
  let* join = oneofl [ "&&"; "||"; "" ] in
  let* k = int_range 1 9 in
  let extra = if join = "" then "" else pf " %s new.items[i].keep" join in
  return
    (pf
       {|if (%s %s %d%s) {
      old.kept[kc].sub = new.items[i].sub;
      old.kept[kc].a = new.items[i].a;
      old.kept[kc].c = new.items[i].c;
      kc++;
    } else {
      old.dropped[dc].a = new.items[i].a - %d;
      old.dropped[dc].sub.p = new.items[i].sub.p;
      dc = dc + 1;
    }|}
       (residue m) cmp r extra k)

let incdec : string t =
  let* k = int_range 1 7 in
  let* op = oneofl [ "+"; "-"; "*" ] in
  let* pre = oneofl [ "++d"; "--d"; "d++"; "d--" ] in
  return
    (pf
       {|old.log[lc++] = new.items[i].a %s %d;
    old.total += %s * %d;
    t = ++old.hist[%d];
    old.total -= t + old.hist[%d]--;|}
       op k pre k (k mod 4) ((k + 1) mod 4))

let compound : string t =
  let* k = int_range 2 9 in
  let* f = int_range 1 8 in
  let* m = int_range 3 97 in
  return
    (pf
       {|old.total += new.items[i].a;
    old.total %%= %d;
    old.total *= %d;
    old.fsum += new.items[i].x * %d.5;
    acc -= new.items[i].x / %d;
    old.umix += new.items[i].u %% %d;
    old.hist[%s] += %d;
    old.total /= %d;|}
       (m * 1000) k f k m (residue 4) k (k - 1))

let nested : string t =
  let* m = int_range 1 4 in
  let* n = int_range 1 3 in
  let* gap = int_range 1 3 in
  return
    (pf
       {|if (%s == 0) {
      old.buckets[bc].id = i;
      for (j = 0; j < %d; j++) old.buckets[bc].vals[j] = new.items[i].a + j;
      old.buckets[bc].vals[%d + j] = -1;
      old.buckets[bc].vals[j] += new.bias;
      bc++;
    }|}
       (residue m) n gap)

let switch : string t =
  let* m = int_range 3 5 in
  let* brk1 = bool in
  let* brk2 = bool in
  let* cont = bool in
  let* k = int_range 1 9 in
  let stop b = if b then " break;" else "" in
  return
    (pf
       {|switch (%s) {
      case 0: old.hist[0]++;%s
      case 1: old.hist[1] += %d;%s
      case 2: case 3: old.hist[2]--;%s
      default: old.hist[3] = old.hist[3] * 2 + 1;
    }|}
       (residue m) (stop brk1) k (stop brk2)
       (if cont then " if (new.items[i].keep) continue;" else ""))

let funcs : string t =
  let* lo = int_range (-500) 0 in
  let* hi = int_range 1 500 in
  let* k = int_range 1 5 in
  return
    (pf
       {|old.total += clampi(new.items[i].a, %d, %d);
    old.fsum += blend(new.items[i].x, %d);
    t = tri(i %% 6);
    old.umix += t;|}
       lo hi k)

let loops : string t =
  let* k = int_range 1 4 in
  let* stop = int_range 2 5 in
  return
    (pf
       {|j = 0;
    while (j < %d) {
      j++;
      if (j == %d) continue;
      if (j > %d) break;
      acc += j;
    }
    t = i %% 7;
    do { t--; old.total++; } while (t > %d);
    old.last = new.items[i].keep ? new.items[i].c : 'z';
    old.flag = old.flag || (new.items[i].a > 0 && !new.items[i].keep);|}
       (stop + 2) k stop (k - 2))

(* Appends the engines once disagreed on: the stored value converts to
   the element type, and an appended record is a copy of its source. *)
let appends : string t =
  let* m = int_range 2 9 in
  let* k = int_range 1 9 in
  return
    (pf
       {|old.flog[fc++] = new.items[i].a %% %d;
    old.log[lc++] = new.items[i].x * %d;
    old.kept[kc].a = new.items[i].a;
    old.kept[kc].sub.s = new.tag;
    old.dropped[dc] = old.kept[kc];
    old.kept[kc].sub.p += %d;
    old.kept[kc].a = old.kept[kc].a - %d;
    kc++;
    dc++;|}
       m k k m)

let templates =
  [ ("filtered", filtered); ("incdec", incdec); ("compound", compound);
    ("nested", nested); ("switch", switch); ("funcs", funcs); ("loops", loops);
    ("appends", appends) ]

let prelude =
  {|int clampi(int v, int lo, int hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}
float blend(float x, int k) { return x * k + 0.25; }
int tri(int n) { if (n <= 0) return 0; return n + tri(n - 1); }
int i, j, t, kc = 0, dc = 0, bc = 0, lc = 0, fc = 0, d = 3;
float acc = 0.0;
old.tag = new.tag;
|}

let gen : case t =
  let* picked = shuffle templates in
  let* keep = list_repeat (List.length picked) bool in
  let chosen = List.filteri (fun i _ -> List.nth keep i) picked in
  let chosen = if chosen = [] then [ List.hd picked ] else chosen in
  let* bodies = fun st -> List.map (fun (_, g) -> g st) chosen in
  let code =
    prelude
    ^ pf "for (i = 0; i < new.n; i++) {\n    %s\n}\n" (String.concat "\n    " bodies)
    ^ "old.total += lc + kc * 100 + dc;\nold.fsum += acc;\n"
  in
  return { features = List.map fst chosen; code }
