(* gateway: the multi-tenant broker.  Pre-encoded [Framing.Described]
   frames from 240 tenants over 16 [Population] lineages (Ecode retro-chains
   of up to 4 hops) go through [Framing.decode] and [Gateway.handle_frame];
   [Netsim] is drained after every arrival, so real compile time lands in
   the measured latency ([compile_s_per_unit = 0]).  Each tenant's pinned
   target drops the bulk [body] string (the drop-heavy shape).  Two
   schema-push storms move every tenant to a newer head, and the
   tenant x format working set outgrows [tenant_quota]/[max_plans], so
   cold plans recur after warm-up.  Virtual time follows a seeded arrival
   schedule, so admission and governor decisions are deterministic.

   One round = a fresh gateway (set-up: tenants, meta pushes of v0..v2,
   one warm-up delivery per tenant x format) plus the timed schedule.
   Round 0 checks every delivered value against the reference; the timed
   rounds only count, and must reproduce round 0's counts exactly.
   Reference: [Codec.Interp] decode, the Ecode interpreter along the same
   chain the gateway plans, then structural conversion. *)

open Pbio
open Util
module G = Gateway
module Framing = Transport.Framing
module Netsim = Transport.Netsim
module Population = Loadgen.Population
module Xform = Morph.Xform
module Maxmatch = Morph.Maxmatch

let base =
  Ptype_dsl.format_of_string_exn
    "format GwEvent { int kind; int seq; int count; float gauge; bool urgent; string body; }"

let target =
  { base with Ptype.fields = List.filter (fun f -> f.Ptype.fname <> "body") base.Ptype.fields }

let tenants = 240
let lineages = 16
let versions = 5
let variants = 2
let first_live = 3 (* v0..v2 are pushed and warmed during set-up *)
let epoch_arrivals = [| 1000; 1500; 1500 |] (* a storm opens epochs 1 and 2 *)
let mean_gap_s = 1e-4
let warmup_gap_s = 1e-3

(* A compile budget that steady traffic stays under and a storm exceeds
   for a few windows, so the ladder degrades and recovers. *)
let config =
  { G.default_config with
    max_plans = 900; tenant_quota = 4; compile_s_per_unit = 0.;
    governor = { G.Governor.default with budget = 1500. } }

(* --- inputs ------------------------------------------------------------------ *)

(* A string of 1-4 KB: its length is drawn from [sizes], its letters from
   [rng]. *)
let bulk ~sizes rng =
  String.init (1_000 + Random.State.int sizes 3_001) (fun _ ->
      Char.chr (97 + Random.State.int rng 26))

let gen_basic ~sizes rng : Ptype.basic -> Value.t = function
  | Ptype.Int -> Value.Int (Random.State.int rng 2_000_000 - 1_000_000)
  | Uint -> Value.Uint (Random.State.int rng 2_000_000)
  | Float -> Value.Float (Random.State.float rng 1e4)
  | Char -> Value.Char (Char.chr (97 + Random.State.int rng 26))
  | Bool -> Value.Bool (Random.State.bool rng)
  | String -> Value.String (bulk ~sizes rng)
  | Enum e -> (
      match List.nth e.Ptype.cases (Random.State.int rng (List.length e.Ptype.cases)) with
      | name, v -> Value.Enum (name, v))

let gen_value ~sizes rng (fmt : Ptype.record) =
  let v =
    Value.record
      (List.map
         (fun (f : Ptype.field) ->
            ( f.fname,
              match f.ftype with Ptype.Basic b -> gen_basic ~sizes rng b | t -> Value.default t ))
         fmt.fields)
  in
  Value.sync_lengths fmt v;
  v

(* The gateway's plan for one format: a direct structural match, else the
   shortest retro-chain whose endpoint matches (as [Gateway] plans it). *)
type path = { specs : Meta.xform_spec list; endpoint : Ptype.record }

let plan_path (meta : Meta.format_meta) : path =
  let fm = meta.Meta.body in
  let ok f =
    Ptype.equal_record f target
    || Maxmatch.qualifies config.G.thresholds (Maxmatch.evaluate_pair f target)
  in
  if ok fm then { specs = []; endpoint = fm }
  else
    let rec walk f acc =
      match
        List.find_opt
          (fun (x : Meta.xform_spec) ->
             Ptype.equal_record (Option.value x.source ~default:fm) f)
          meta.Meta.xforms
      with
      | None -> failwith "gateway workload: format has no acceptable plan"
      | Some x ->
        let acc = x :: acc in
        if ok x.target then { specs = List.rev acc; endpoint = x.target } else walk x.target acc
    in
    walk fm []

(* A path's Ecode hops under either engine, and the structural
   conversion from its endpoint into the target. *)
let chain ~engine (meta : Meta.format_meta) (p : path) =
  let steps, _ =
    List.fold_left
      (fun (acc, src) (x : Meta.xform_spec) ->
         match Xform.compile ~engine ~source:src x with
         | Ok c -> (c.Xform.run :: acc, x.target)
         | Error e -> failwith (Err.to_string e))
      ([], meta.Meta.body) p.specs
  in
  let steps = List.rev steps in
  let conv =
    if Ptype.equal_record p.endpoint target then Fun.id
    else Convert.compile ~from_:p.endpoint ~into:target
  in
  ((fun v -> List.fold_left (fun v f -> f v) v steps), conv)

type ev = {
  push : bool;  (** a meta push (storm) rather than a data message *)
  tenant : int;
  version : int;
  variant : int;
  gap_s : float;  (** simulated time since the previous arrival *)
}

type inputs = {
  metas : Meta.format_meta array array;  (** [lineage][version] *)
  paths : path array array;
  msgs : string array array array;  (** [lineage][version][variant] wire *)
  refs : Value.t array array array;  (** reference target values, same index *)
  data : string array array array;  (** [tenant][version][variant] frames *)
  pushes : string array array;  (** [tenant][version] meta frames *)
  schedule : ev array;
}

let lineage t = t mod lineages

(* The lineages are part of the workload's definition, like the Figure 5
   formats of rollback: their shapes come from fixed Population seeds, and
   [--seed] draws the message contents and the arrival schedule. *)
let make_inputs seed =
  let metas =
    Array.init lineages (fun l ->
        Array.map
          (fun (v : Population.version) -> v.Population.meta)
          (Population.versions (Population.make ~base ~versions ~seed:(7919 * (l + 1)) ())))
  in
  let paths = Array.map (Array.map plan_path) metas in
  let rng = Random.State.make [| 0x9a7e; seed |] in
  (* String lengths come from a fixed stream, so every seed sends the same
     message sizes and only their contents change: with 2 variants per
     format and most traffic on a few head versions, seed-drawn lengths
     moved the median latency by 15% from one seed to another. *)
  let sizes = Random.State.make [| 0x5172e |] in
  let msgs =
    Array.map
      (Array.mapi (fun v (m : Meta.format_meta) ->
           Array.init variants (fun _ ->
               Wire.encode ~format_id:v m.Meta.body (gen_value ~sizes rng m.Meta.body))))
      metas
  in
  let refs =
    Array.mapi
      (fun l row ->
         Array.mapi
           (fun v wires ->
              let m = metas.(l).(v) in
              let hops, conv = chain ~engine:Xform.Interpreted m paths.(l).(v) in
              Array.map
                (fun w ->
                   conv @@ hops @@ (Codec.Interp.decode_payload ~endian:(Codec.read_header w).Codec.endian
                        ~pos:Codec.header_size m.Meta.body w))
                wires)
           row)
      msgs
  in
  let fp t v = G.fingerprint metas.(lineage t).(v) in
  let data =
    Array.init tenants (fun t ->
        Array.init versions (fun v ->
            Array.map
              (fun message ->
                 Framing.encode
                   (G.envelope ~tenant:t ~fingerprint:(fp t v)
                      (Framing.Data { format_id = v; message })))
              msgs.(lineage t).(v)))
  in
  let pushes =
    Array.init tenants (fun t ->
        Array.init versions (fun v ->
            Framing.encode
              (G.envelope ~tenant:t ~fingerprint:(fp t v)
                 (Framing.Meta { format_id = v; meta = Meta.encode metas.(lineage t).(v) }))))
  in
  let schedule = ref [] in
  Array.iteri
    (fun e n ->
       let head = first_live - 1 + e in
       if e > 0 then begin
         let order = Array.init tenants Fun.id in
         shuffle rng order;
         Array.iter
           (fun t ->
              schedule :=
                { push = true; tenant = t; version = head; variant = 0; gap_s = 0. } :: !schedule)
           order
       end;
       (* the epoch's live versions v0..head in Population's default mix,
          as loadgen's gateway load draws them: 70% head, 25% its
          predecessor, 5% split over the older stragglers *)
       let mix = Population.make ~base ~versions:(head + 1) ~seed:0 () in
       for _ = 1 to n do
         let tenant = Random.State.int rng tenants in
         let version = Population.pick mix rng in
         let variant = Random.State.int rng variants in
         let gap_s = -.mean_gap_s *. log (1. -. Random.State.float rng 1.) in
         schedule := { push = false; tenant; version; variant; gap_s } :: !schedule
       done)
    epoch_arrivals;
  { metas; paths; msgs; refs; data; pushes; schedule = Array.of_list (List.rev !schedule) }

let input_digest inp =
  digest_strings
    (Array.to_list
       (Array.map
          (fun e -> Printf.sprintf "%b:%d:%d:%d:%h" e.push e.tenant e.version e.variant e.gap_s)
          inp.schedule)
     @ List.concat_map (fun a -> List.concat_map Array.to_list (Array.to_list a))
       (Array.to_list inp.msgs))

(* --- one gateway ------------------------------------------------------------- *)

(* The delivery handler counts (and notes the rung for the traced
   replay); while verifying it also compares against the reference. *)
type hstate = {
  mutable count : int;
  mutable rung : G.rung;
  mutable check : bool;
  mutable want : Value.t;
  mutable wrong : int;
}

let handler st (d : G.delivery) =
  st.count <- st.count + 1;
  st.rung <- d.G.rung;
  if st.check && not (Value.equal d.G.value st.want) then st.wrong <- st.wrong + 1

type gw = { g : G.t; net : Netsim.t; ctx : Ctx.t }

let arrive w bytes =
  match Framing.decode bytes with
  | Ok f ->
    ignore (G.handle_frame w.g f : G.outcome);
    ignore (Netsim.run w.net : Netsim.run_result)
  | Error e -> failwith (Err.to_string e)

(* Tenant creation with pinned targets, meta pushes of v0..v2 and one
   warm-up delivery per tenant x live format. *)
let setup inp st =
  let net = Netsim.create () in
  let ctx = Ctx.create () in
  let g = G.create ~config ~ctx ~net (Transport.Contact.make "gateway" 1) (handler st) in
  let w = { g; net; ctx } in
  for t = 0 to tenants - 1 do
    G.add_tenant g ~id:t ~target ()
  done;
  for v = 0 to first_live - 1 do
    for t = 0 to tenants - 1 do
      arrive w inp.pushes.(t).(v)
    done
  done;
  for v = 0 to first_live - 1 do
    for t = 0 to tenants - 1 do
      ignore (Netsim.advance net warmup_gap_s : int);
      st.want <- inp.refs.(lineage t).(v).(0);
      arrive w inp.data.(t).(v).(0)
    done
  done;
  w

(* Gateway counters over the timed schedule of one round; every timed
   round must reproduce round 0's exactly. *)
type counts = {
  data : int;
  delivered : int;
  compiles : int;
  evictions : int;
  hits : int;
  misses : int;
  shed : int;
  degraded : int;
  fused : int;
  hops : int;  (** Ecode hops summed over delivered messages *)
}

let snapshot w st hops =
  let s = G.stats w.g and c = G.cache_stats w.g in
  { data = 0; delivered = st.count; compiles = s.G.plan_compiles;
    evictions = c.G.Plan_cache.evictions; hits = c.G.Plan_cache.hits;
    misses = c.G.Plan_cache.misses; shed = G.shed_total s;
    degraded = s.G.degraded_deliveries; fused = s.G.delivered_fused; hops }

let diff a b data =
  { data; delivered = b.delivered - a.delivered; compiles = b.compiles - a.compiles;
    evictions = b.evictions - a.evictions; hits = b.hits - a.hits;
    misses = b.misses - a.misses; shed = b.shed - a.shed;
    degraded = b.degraded - a.degraded; fused = b.fused - a.fused; hops = b.hops - a.hops }

let show_counts c =
  Printf.sprintf
    "data=%d delivered=%d compiles=%d evictions=%d hits=%d misses=%d shed=%d degraded=%d fused=%d hops=%d"
    c.data c.delivered c.compiles c.evictions c.hits c.misses c.shed c.degraded c.fused c.hops

(* Per-arrival observations a round reports back. *)
type sink = {
  mutable lat : Samples.t;  (** this round's data arrivals, e2e ns *)
  mutable cold : Samples.t;  (** those of them that compiled a plan *)
  per_arrival : Per_input.t;  (** e2e ns by schedule position *)
  mutable failed : int;
  mutable wall_ns : float;  (** schedule wall time, set-up excluded *)
  mutable alloc_bytes : float;  (** allocated during schedules *)
  mutable minor_gcs : int;
  mutable data_n : int;
  rounds : Rounds.t;  (** per-round figures of the untraced rounds *)
}

let new_sink inp =
  { lat = Samples.create (); cold = Samples.create ();
    per_arrival = Per_input.create (Array.length inp.schedule); failed = 0; wall_ns = 0.;
    alloc_bytes = 0.; minor_gcs = 0; data_n = 0; rounds = Rounds.create () }

(* Replay state of the traced run: compiled chains per format, the span
   recorder, and the sums the per-layer metrics come from. *)
type replay = {
  tr : Trace.t;
  chains : ((Value.t -> Value.t) * (Value.t -> Value.t)) array array;
      (** per format: compiled Ecode hops, then conversion *)
  mutable warm : int;
  mutable cold_n : int;
  mutable e2e_warm : float;
  mutable stage_warm : float;  (** frame decode + replayed stages, warm arrivals *)
  mutable gw_warm : float;  (** handle + drain, warm arrivals *)
  mutable gw_stage_warm : float;  (** replayed stages inside handle + drain *)
  mutable drain_cold : float;
}

let play inp st w (sk : sink) (rp : replay option) ~on_counts =
  let hops_of t v = List.length inp.paths.(lineage t).(v).specs in
  let hops = ref 0 in
  let c0 = snapshot w st 0 in
  let data = ref 0 in
  let g0 = gc_mark () in
  let t_start = now_ns () in
  Array.iteri
    (fun j ev ->
       if ev.push then arrive w inp.pushes.(ev.tenant).(ev.version)
       else begin
         ignore (Netsim.advance w.net ev.gap_s : int);
         let l = lineage ev.tenant in
         st.want <- inp.refs.(l).(ev.version).(ev.variant);
         let bytes = inp.data.(ev.tenant).(ev.version).(ev.variant) in
         let compiles0 = (G.stats w.g).G.plan_compiles and n0 = st.count in
         (match rp with
          | None ->
            let t0 = now_ns () in
            (match Framing.decode bytes with
             | Ok f ->
               ignore (G.handle_frame w.g f : G.outcome);
               ignore (Netsim.run w.net : Netsim.run_result)
             | Error _ -> ());
            let d = now_ns () -. t0 in
            Samples.add sk.lat d;
            if (G.stats w.g).G.plan_compiles > compiles0 then Samples.add sk.cold d;
            Per_input.add sk.per_arrival j d
          | Some rp ->
            let t0 = now_ns () in
            let f = Framing.decode bytes in
            let t1 = now_ns () in
            (match f with Ok f -> ignore (G.handle_frame w.g f : G.outcome) | Error _ -> ());
            let t2 = now_ns () in
            ignore (Netsim.run w.net : Netsim.run_result);
            let t3 = now_ns () in
            Trace.record rp.tr "gateway.e2e" (t3 -. t0);
            Trace.record rp.tr "transport.frame_decode" (t1 -. t0);
            Trace.record rp.tr "gateway.handle" (t2 -. t1);
            Trace.record rp.tr "gateway.drain" (t3 -. t2);
            Per_input.add sk.per_arrival j (t3 -. t0);
            let sp name f = Trace.span rp.tr name f in
            let msg = inp.msgs.(l).(ev.version).(ev.variant) in
            let m = inp.metas.(l).(ev.version) in
            if (G.stats w.g).G.plan_compiles > compiles0 then begin
              (* cold: replay the plan's compile stages on fresh state *)
              rp.cold_n <- rp.cold_n + 1;
              rp.drain_cold <- rp.drain_cold +. (t3 -. t2);
              let p = inp.paths.(l).(ev.version) in
              ignore
                (sp "core.maxmatch" (fun () ->
                     ignore (Maxmatch.evaluate_pair m.Meta.body target);
                     List.iter
                       (fun (x : Meta.xform_spec) -> ignore (Maxmatch.evaluate_pair x.target target))
                       p.specs));
              ignore (sp "ecode.compile" (fun () -> ignore (chain ~engine:Xform.Compiled m p)));
              ignore
                (sp "pbio.plan_compile" (fun () ->
                     match st.rung with
                     | G.Fused ->
                       ignore (Codec.compile_morph ~endian:Codec.Little ~from_:m.Meta.body ~into:target)
                     | G.Staged -> ignore (Codec.compile_decode ~endian:Codec.Little m.Meta.body)
                     | G.Interp | G.Shed -> ()))
            end
            else begin
              let endian = (Codec.read_header msg).Codec.endian in
              let src = m.Meta.body in
              let value, stages =
                match st.rung with
                | G.Fused ->
                  (* the plan holds its morpher; look it up outside the span *)
                  let mor = Codec.morpher_in (Ctx.codecs w.ctx) ~endian ~from_:src ~into:target in
                  sp "pbio.morph" (fun () -> Codec.morph_payload mor ~pos:Codec.header_size msg)
                | rung ->
                  let decode =
                    if rung = G.Staged then
                      let dec = Codec.decoder_for ~cache:(Ctx.codecs w.ctx) ~endian src in
                      fun () -> Codec.decode_payload dec ~pos:Codec.header_size msg
                    else fun () -> Codec.Interp.decode_payload ~endian ~pos:Codec.header_size src msg
                  in
                  let v, d1 = sp "pbio.decode" decode in
                  let hops, conv = rp.chains.(l).(ev.version) in
                  let v, d2 = sp "ecode.transform" (fun () -> hops v) in
                  let v, d3 = sp "pbio.convert" (fun () -> conv v) in
                  (v, d1 +. d2 +. d3)
              in
              let (), dh =
                sp "core.handler" (fun () ->
                    handler st
                      { G.tenant = ev.tenant; fingerprint = 0; deadline_ns = 0; rung = st.rung;
                        degraded = false; value })
              in
              st.count <- st.count - 1;
              rp.warm <- rp.warm + 1;
              rp.e2e_warm <- rp.e2e_warm +. (t3 -. t0);
              rp.stage_warm <- rp.stage_warm +. (t1 -. t0) +. stages +. dh;
              rp.gw_warm <- rp.gw_warm +. (t3 -. t1);
              rp.gw_stage_warm <- rp.gw_stage_warm +. stages +. dh
            end);
         if st.count <> n0 + 1 then sk.failed <- sk.failed + 1;
         hops := !hops + hops_of ev.tenant ev.version;
         incr data
       end)
    inp.schedule;
  sk.wall_ns <- sk.wall_ns +. (now_ns () -. t_start);
  let g1 = gc_mark () in
  sk.alloc_bytes <- sk.alloc_bytes +. (g1.alloc_bytes -. g0.alloc_bytes);
  sk.minor_gcs <- sk.minor_gcs + (g1.minor_gcs - g0.minor_gcs);
  on_counts (diff c0 (snapshot w st !hops) !data)

(* Set-up plus schedule of one round; an untraced round between host
   probes. *)
let round inp st sk rp ~on_counts =
  let probes = Samples.create () in
  let probe () = if rp = None then Samples.add probes (Host.probe ()) in
  probe ();
  probe ();
  let t0 = now_ns () in
  let w = setup inp st in
  let setup_s = (now_ns () -. t0) *. 1e-9 in
  sk.lat <- Samples.create ();
  sk.cold <- Samples.create ();
  let wall0 = sk.wall_ns and n0 = st.count in
  play inp st w sk rp ~on_counts;
  probe ();
  probe ();
  if Samples.length sk.lat > 0 then begin
    sk.data_n <- sk.data_n + Samples.length sk.lat;
    Rounds.add sk.rounds ~probes ~setup_s ~lat:sk.lat ~units:(st.count - n0)
      ~wall_ns:(sk.wall_ns -. wall0) ~cold:sk.cold
  end

let run ~seed ~seconds ~trace : result =
  let inp = make_inputs seed in
  let st = { count = 0; rung = G.Fused; check = true; want = Value.Int 0; wrong = 0 } in
  let problems = ref [] in
  (* round 0: every delivered value checked against the reference *)
  let verify_sink = new_sink inp in
  let counts0 = ref None in
  round inp st verify_sink None ~on_counts:(fun c -> counts0 := Some c);
  let counts0 = Option.get !counts0 in
  st.check <- false;
  let same c =
    if c <> counts0 then
      problems := Printf.sprintf "round counts differ: %s" (show_counts c) :: !problems
  in
  let rounds_until sk rp ~deadline =
    let n = ref 0 in
    while !n = 0 || now_ns () < deadline do
      round inp st sk rp ~on_counts:same;
      incr n
    done;
    !n
  in
  let start = now_ns () in
  let timed = new_sink inp and traced = new_sink inp in
  let attempted, metrics, spans =
    if not trace then begin
      ignore (rounds_until timed None ~deadline:(start +. (seconds *. 1e9)) : int);
      (timed.data_n, Rounds.metrics timed.rounds ~samples:timed.data_n, [])
    end
    else begin
      let rp =
        { tr = Trace.create ();
          chains =
            Array.mapi (fun l -> Array.mapi (fun v m -> chain ~engine:Xform.Compiled m inp.paths.(l).(v)))
              inp.metas;
          warm = 0; cold_n = 0; e2e_warm = 0.; stage_warm = 0.; gw_warm = 0.;
          gw_stage_warm = 0.; drain_cold = 0. }
      in
      (* untraced and traced rounds alternate, so both see the host at the
         same speed; the untraced ones give allocation, minor GCs and the
         e2e reference of the trace overhead *)
      let i = ref 0 in
      while !i < 2 || now_ns () < start +. (seconds *. 1e9) do
        if !i land 1 = 0 then round inp st timed None ~on_counts:same
        else round inp st traced (Some rp) ~on_counts:same;
        incr i
      done;
      let c = counts0 in
      let n_plain = timed.data_n in
      let per name n = Trace.total rp.tr name /. float_of_int (max 1 n) in
      let cold_us name = per name rp.cold_n /. 1e3 in
      let data_traced = rp.warm + rp.cold_n in
      let frac a b = float_of_int a /. float_of_int (max 1 b) in
      ( timed.data_n + data_traced,
        [ metric ~samples:rp.warm "ecode.transform_ns" (per "ecode.transform" rp.warm);
          metric ~samples:rp.cold_n "ecode.compile_us" (cold_us "ecode.compile");
          metric ~samples:c.delivered "ecode.hops_per_msg" (frac c.hops c.delivered);
          metric ~samples:rp.cold_n "core.maxmatch_us" (cold_us "core.maxmatch");
          metric ~samples:rp.cold_n "pbio.plan_compile_us" (cold_us "pbio.plan_compile");
          metric ~samples:rp.warm "pbio.decode_ns" (per "pbio.decode" rp.warm);
          metric ~samples:rp.warm "pbio.morph_ns" (per "pbio.morph" rp.warm);
          metric ~samples:n_plain "pbio.alloc_bytes_per_delivery"
            (timed.alloc_bytes /. float_of_int n_plain);
          metric ~samples:n_plain "pbio.minor_gcs_per_kdelivery"
            (1000. *. float_of_int timed.minor_gcs /. float_of_int n_plain);
          metric ~samples:rp.warm "pbio.convert_ns" (per "pbio.convert" rp.warm);
          metric ~samples:rp.cold_n "gateway.drain_us" (rp.drain_cold /. float_of_int (max 1 rp.cold_n) /. 1e3);
          metric ~samples:rp.warm "gateway.handle_ns" (rp.gw_warm /. float_of_int (max 1 rp.warm));
          metric ~samples:rp.warm "gateway.overhead_ns"
            ((rp.gw_warm -. rp.gw_stage_warm) /. float_of_int (max 1 rp.warm));
          metric ~samples:(c.hits + c.misses) "gateway.plan_cache_hit_ratio" (frac c.hits (c.hits + c.misses));
          metric ~samples:c.data "gateway.plan_evictions" (float_of_int c.evictions);
          metric ~samples:c.data "gateway.compiles" (float_of_int c.compiles);
          metric ~samples:c.data "gateway.shed_frac" (frac c.shed c.data);
          metric ~samples:c.delivered "gateway.degraded_frac" (frac c.degraded c.delivered);
          metric ~samples:c.delivered "gateway.fused_share" (frac c.fused c.delivered);
          metric ~samples:data_traced "transport.frame_decode_ns"
            (per "transport.frame_decode" data_traced);
          metric ~samples:rp.warm "core.dispatch_ns"
            ((rp.e2e_warm -. rp.stage_warm) /. float_of_int (max 1 rp.warm));
          metric ~samples:rp.warm "core.handler_ns" (per "core.handler" rp.warm);
          metric ~samples:c.data "core.cache_hit_ratio" (frac (c.data - c.compiles) c.data);
          metric ~samples:rp.warm "bench.stage_residual_frac"
            (Float.abs (rp.e2e_warm -. rp.stage_warm) /. rp.e2e_warm);
          metric ~samples:data_traced "bench.trace_overhead_frac"
            (Per_input.overhead ~traced:traced.per_arrival ~plain:timed.per_arrival) ],
        Trace.totals rp.tr )
    end
  in
  let failed = verify_sink.failed + timed.failed + traced.failed + st.wrong in
  let context =
    [ ("input_digest", input_digest inp); ("tenants", string_of_int tenants);
      ("round_counts", show_counts counts0) ]
    @ Rounds.context timed.rounds
    @ List.map (fun p -> ("problem", p)) !problems
  in
  { correct = failed = 0 && !problems = [];
    attempted = attempted + counts0.data; failed; metrics; context; spans }
