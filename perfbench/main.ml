(* The repository benchmark: three closed-loop delivery workloads driven
   through the public entry points a deployed receiver uses.

     main.exe --workload rollback|fanout|gateway --seed N --seconds S
              --trace 0|1 [--metrics a,b] [--nproc N] [--git-rev REV]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   breakdown of a traced run.  Human-readable lines come first; the last
   line of standard output is one JSON object (correct, attempted,
   failed, metrics).  Exits 1 when any delivered value is wrong, any
   delivery failed or, in a traced rollback or fanout run, the replayed
   stages miss the delivery time by more than Util.max_stage_residual;
   2 on a usage error.  See perfbench/README.md. *)

let workloads = [ "rollback"; "fanout"; "gateway" ]

(* name, unit: the contract of BENCHMARK.json, in print order *)
let end_to_end =
  [ ("deliveries_per_s", "1/s"); ("latency_p50_us", "us"); ("latency_p99_us", "us");
    ("cold_delivery_p50_us", "us"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("ecode.transform_ns", "ns"); ("ecode.compile_us", "us"); ("ecode.hops_per_msg", "count");
    ("core.maxmatch_us", "us"); ("core.dispatch_ns", "ns"); ("core.handler_ns", "ns");
    ("core.cache_hit_ratio", "ratio"); ("pbio.plan_compile_us", "us");
    ("pbio.decode_ns", "ns"); ("pbio.convert_ns", "ns"); ("pbio.morph_ns", "ns");
    ("pbio.alloc_bytes_per_delivery", "bytes"); ("pbio.minor_gcs_per_kdelivery", "count");
    ("echo.event_us", "us"); ("echo.width1_event_us", "us"); ("echo.pool_efficiency", "ratio");
    ("gateway.drain_us", "us"); ("gateway.handle_ns", "ns"); ("gateway.overhead_ns", "ns");
    ("gateway.plan_cache_hit_ratio", "ratio"); ("gateway.plan_evictions", "count");
    ("gateway.compiles", "count"); ("gateway.shed_frac", "ratio");
    ("gateway.degraded_frac", "ratio"); ("gateway.fused_share", "ratio");
    ("transport.frame_decode_ns", "ns"); ("bench.stage_residual_frac", "ratio");
    ("bench.trace_overhead_frac", "ratio") ]

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  only : string list option;
  nproc : int option;
  git_rev : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload rollback|fanout|gateway --seed N --seconds S --trace 0|1\n\
    \                [--metrics NAME,...] [--nproc N] [--git-rev REV]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let int_arg flag s =
  match int_of_string_opt s with Some n -> n | None -> fail "%s wants an integer, got %S" flag s

let parse argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem w workloads) then
        fail "unknown workload %S (known: %s)" w (String.concat ", " workloads);
      go { o with workload = w } rest
    | "--seed" :: s :: rest -> go { o with seed = int_arg "--seed" s } rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some x when x > 0. -> go { o with seconds = x } rest
       | _ -> fail "--seconds wants a positive number, got %S" s)
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--trace" :: t :: _ -> fail "--trace wants 0 or 1, got %S" t
    | "--metrics" :: l :: rest -> go { o with only = Some (String.split_on_char ',' l) } rest
    | "--nproc" :: n :: rest -> go { o with nproc = Some (int_arg "--nproc" n) } rest
    | "--git-rev" :: r :: rest -> go { o with git_rev = r } rest
    | ("-h" | "--help") :: _ -> usage ()
    | a :: _ -> fail "unknown argument %S" a
  in
  let o =
    go { workload = ""; seed = 0; seconds = 10.; trace = false; only = None; nproc = None;
         git_rev = "unknown" }
      (List.tl (Array.to_list argv))
  in
  if o.workload = "" then usage ();
  o

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision, and JSON has no nan/inf. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let o = parse Sys.argv in
  let specs = if o.trace then per_layer else end_to_end in
  let selected =
    match o.only with
    | None -> specs
    | Some names ->
      List.map
        (fun n ->
           match List.assoc_opt n specs with
           | Some u -> (n, u)
           | None ->
             fail "unknown %s metric %S (known: %s)"
               (if o.trace then "per-layer" else "end-to-end")
               n (String.concat ", " (List.map fst specs)))
        names
  in
  let recommended = Domain.recommended_domain_count () in
  let nproc = Option.value o.nproc ~default:recommended in
  let width = max 1 (min nproc recommended) in
  let context =
    [ ("workload", o.workload); ("seed", string_of_int o.seed);
      ("seconds", Printf.sprintf "%g" o.seconds); ("trace", if o.trace then "1" else "0");
      ("nproc", string_of_int nproc); ("recommended_domains", string_of_int recommended);
      ("ocaml", Sys.ocaml_version);
      ("ocamlrunparam", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
      ("git_rev", o.git_rev);
      ("pool_width", string_of_int (if o.workload = "fanout" && o.trace then width else 1)) ]
  in
  let r =
    match o.workload with
    | "rollback" -> Wl_rollback.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
    | "fanout" -> Wl_fanout.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~width
    | _ -> Wl_gateway.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  in
  (* the replayed stages must account for the delivery where all of it
     is replayed *)
  let r =
    match List.find_opt (fun (m : Util.metric) -> m.Util.name = "bench.stage_residual_frac") r.Util.metrics with
    | Some m when o.workload <> "gateway" && not (m.Util.value <= Util.max_stage_residual) ->
      { r with
        Util.correct = false;
        context =
          r.Util.context
          @ [ ("problem",
               Printf.sprintf "bench.stage_residual_frac %.4f over the tolerance %.2f" m.Util.value
                 Util.max_stage_residual) ] }
    | _ -> r
  in
  List.iter (fun (k, v) -> Printf.printf "# %-20s %s\n" k v) (context @ r.Util.context);
  List.iter
    (fun (name, count, total) ->
       Printf.printf "# span %-26s n=%-9d mean=%.1fns\n" name count
         (total /. float_of_int count))
    r.Util.spans;
  Printf.printf "# error_rate %.6g (%d failed of %d attempted)\n"
    (float_of_int r.Util.failed /. float_of_int (max 1 r.Util.attempted))
    r.Util.failed r.Util.attempted;
  (* a per-layer metric whose layer this workload never calls reads 0 *)
  let value name =
    match List.find_opt (fun (m : Util.metric) -> m.Util.name = name) r.Util.metrics with
    | Some m -> (m.Util.value, string_of_int m.Util.samples)
    | None -> (0., "not on this workload's path")
  in
  List.iter
    (fun (name, u) ->
       let v, n = value name in
       Printf.printf "%-32s %14.4f %-6s (n=%s)\n" name v u n)
    selected;
  let metrics =
    List.map
      (fun (name, u) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
           (json_float (fst (value name))) (json_string u))
      selected
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.Util.correct r.Util.attempted r.Util.failed (String.concat ", " metrics);
  exit (if r.Util.correct then 0 else 1)
