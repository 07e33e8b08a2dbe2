(* fanout: the ECho channel.  Seeded ChannelOpenResponse v2.0 events of
   about 1-10 KB are published one at a time through
   [Echo.Fanout.deliver_batch] to 32 sinks registered for a trimmed v2.0
   target that keeps the member list (the keep-most shape), one [Ctx] per
   sink: on one domain in the end-to-end run, over a [Morph.Pool] of the
   capped width in the traced run.  Reference: [Codec.Interp] decode, then
   structural conversion. *)

open Pbio
open Util
module WF = Echo.Wire_formats
module R = Morph.Receiver

let v2 = WF.channel_open_response_v2

(* v2.0 minus the role flags of each member: every other byte is kept *)
let trim : Ptype.record =
  Ptype.record "ChannelOpenResponse"
    [ Ptype.field "channel" Ptype.string_;
      Ptype.field "member_count" Ptype.int_;
      Ptype.field "member_list" (Ptype.array_var "member_count" (Ptype.Record WF.member_v1)) ]

let meta = Meta.plain v2
let nsinks = 32
let distinct = 32
let stream_len = 4096

type inputs = { wires : string array; stream : int array }

(* Sizes are stratified over 1-10 KB (one draw per 1/32 of the range), so
   every seed gets the same size profile and only the contents change. *)
let make_inputs seed =
  let rng = Random.State.make [| 0xfa0; seed |] in
  let wires =
    Array.init distinct (fun i ->
        let bytes = 1_000 + (9_000 * i / distinct) + Random.State.int rng (9_000 / distinct) in
        Wire.encode ~format_id:1 v2 (Wl_rollback.gen_value rng bytes))
  in
  { wires; stream = block_stream rng ~distinct ~len:stream_len }

let input_digest inp = digest_strings (digest_ints inp.stream :: Array.to_list inp.wires)

let reference w =
  let v = Codec.Interp.decode_payload ~endian:(Codec.read_header w).Codec.endian
      ~pos:Codec.header_size v2 w in
  match Convert.convert ~from_:v2 ~into:trim v with
  | Ok v -> v
  | Error e -> failwith (Err.to_string e)

(* Per-sink handler state: each sink runs on one domain per batch, so its
   own slots need no locking.  [capture] only flips between batches. *)
type state = { counts : int array; mutable capture : bool; captured : Value.t option array }

type world = {
  sinks : Echo.Fanout.sink array;
  ctxs : Ctx.t array;
  handlers : (Value.t -> unit) array;
  pool : Morph.Pool.t option;
}

let make_sinks ?pool st =
  let ctxs = Array.init nsinks (fun _ -> Ctx.create ()) in
  let handlers =
    Array.init nsinks (fun s v ->
        if st.capture then st.captured.(s) <- Some v
        else st.counts.(s) <- st.counts.(s) + 1)
  in
  let sinks =
    Array.mapi
      (fun s ctx ->
         let recv = R.create ~config:(R.Config.v ~ctx ()) () in
         R.register recv trim handlers.(s);
         Echo.Fanout.sink ~name:(Printf.sprintf "sink%d" s) recv)
      ctxs
  in
  { sinks; ctxs; handlers; pool }

let undelivered outs =
  Array.length outs * Array.length outs.(0) - Echo.Fanout.delivered_count outs

(* Pool start, sink creation and one warm-up batch of every distinct
   event (plans each sink's pipeline, fills its codec plan cache). *)
let setup inp st ~width =
  let pool = if width > 1 then Some (Morph.Pool.create ~domains:width) else None in
  let w = make_sinks ?pool st in
  (w, undelivered (Echo.Fanout.deliver_batch ?pool ~sinks:w.sinks meta inp.wires))

let shutdown w = Option.iter Morph.Pool.shutdown w.pool
let cold_reps = 31
let cold_per_round = 8

(* One event through 32 fresh sinks: each plans (MaxMatch, convert and
   fused-plan compile in its own fresh context), then delivers. *)
let cold_probe inp st pool ~failed () =
  let fresh = make_sinks st in
  let t0 = now_ns () in
  let outs = Echo.Fanout.deliver_batch ?pool ~sinks:fresh.sinks meta [| inp.wires.(0) |] in
  let d = now_ns () -. t0 in
  failed := !failed + undelivered outs;
  d

let verify inp st w =
  st.capture <- true;
  let bad = ref 0 in
  Array.iter
    (fun wire ->
       Array.fill st.captured 0 nsinks None;
       let outs = Echo.Fanout.deliver_batch ?pool:w.pool ~sinks:w.sinks meta [| wire |] in
       let want = reference wire in
       Array.iteri
         (fun s row ->
            match row.(0), st.captured.(s) with
            | R.Delivered _, Some v when Value.equal v want -> ()
            | _ -> incr bad)
         outs)
    inp.wires;
  st.capture <- false;
  !bad

let singles inp = Array.map (fun w -> [| w |]) inp.wires

(* Closed loop, one event per batch, from stream position [k] until
   [deadline]; returns the next stream position. *)
let loop inp w ?pool ~k ~deadline ~failed on =
  let batches = singles inp in
  closed_loop ~stream:inp.stream ~k ~deadline
    ~deliver:(fun i -> Echo.Fanout.deliver_batch ?pool ~sinks:w.sinks meta batches.(i))
    ~check:(fun outs -> failed := !failed + undelivered outs)
    ~on

let run ~seed ~seconds ~trace ~width : result =
  let inp = make_inputs seed in
  let st = { counts = Array.make nsinks 0; capture = false;
             captured = Array.make nsinks None } in
  let failed = ref 0 in
  (* The end-to-end run delivers on one domain.  With a pool of two on a
     shared 2-vCPU host, whole runs fell into spells in which the second
     vCPU was barely available (deliveries/s 18-21k against 66-72k, p99
     10 ms against 1 ms, one run in ten), while one domain slowed by a
     few percent; the pool is measured by the traced run instead. *)
  let width = if trace then width else 1 in
  let timed_setup () =
    let (w, bad), setup_s = timed (fun () -> setup inp st ~width) in
    failed := !failed + bad;
    (w, setup_s)
  in
  let w, setup0 = timed_setup () in
  let bad = verify inp st w in
  let context = [ ("input_digest", input_digest inp); ("sinks", string_of_int nsinks) ] in
  let rs = Rounds.create () in
  let events, metrics, spans =
    if not trace then begin
      (* each round: fresh sinks, the closed loop, then a fixed burst of
         cold events *)
      let k, cold_n =
        closed_rounds rs ~seconds ~first:(w, setup0) ~setup:timed_setup
          ~window:(fun w ~k ~deadline on -> loop inp w ?pool:w.pool ~k ~deadline ~failed on)
          ~cold:(fun w -> repeat cold_per_round (cold_probe inp st w.pool ~failed))
          ~release:shutdown ~units:nsinks
      in
      (k + cold_n, Rounds.metrics rs ~samples:k, [])
    end
    else begin
      (* three kinds of segment in turn: pooled untraced (event time,
         minor GCs), width-1 untraced (the sequential baseline, allocation
         per delivery with one domain so the counter sees it all, the e2e
         reference of the trace overhead) and width-1 traced: the event as
         one span, then each sink's fused morph and handler replayed
         through the same public functions; sink 0 also replays the
         staged alternative (decode, convert) *)
      let pooled = Samples.create () and single = Samples.create () in
      let minor_gcs = ref 0 and alloc = ref 0. in
      let plain = Per_input.create distinct and traced = Per_input.create distinct in
      let conv = Convert.compile ~from_:v2 ~into:trim in
      let tr = Trace.create () in
      let batches = singles inp in
      let e2e_total = ref 0. and stage_total = ref 0. in
      let e2e_each = Samples.create () and stage_each = Samples.create () in
      let pos = ref 0 and k = ref 0 in
      let traced_step () =
        let i = inp.stream.(!pos land (stream_len - 1)) in
        let wire = inp.wires.(i) in
        let e2e () =
          let outs, d =
            Trace.span tr "echo.event" (fun () ->
                Echo.Fanout.deliver_batch ~sinks:w.sinks meta batches.(i))
          in
          failed := !failed + undelivered outs;
          Per_input.add traced i d;
          e2e_total := !e2e_total +. d
        in
        let replay () =
          for s = 0 to nsinks - 1 do
            let v, d1 =
              Trace.span tr "pbio.morph" (fun () ->
                  let h = Codec.read_header wire in
                  Codec.morph_payload
                    (Codec.morpher_in (Ctx.codecs w.ctxs.(s)) ~endian:h.Codec.endian
                       ~from_:v2 ~into:trim)
                    ~pos:Codec.header_size wire)
            in
            let (), d2 = Trace.span tr "core.handler" (fun () -> w.handlers.(s) v) in
            stage_total := !stage_total +. d1 +. d2
          done;
          let v, _ =
            Trace.span tr "pbio.decode" (fun () ->
                match Wire.decode ~ctx:w.ctxs.(0) v2 wire with
                | Ok v -> v
                | Error e -> failwith (Err.to_string e))
          in
          ignore (Trace.span tr "pbio.convert" (fun () -> conv v))
        in
        let e0 = !e2e_total and s0 = !stage_total in
        alternate !k ~e2e ~replay;
        Samples.add e2e_each (!e2e_total -. e0);
        Samples.add stage_each (!stage_total -. s0);
        incr k;
        incr pos
      in
      cycle ~deadline:(now_ns () +. (seconds *. 1e9))
        [ (fun until ->
              let g0 = gc_mark () in
              pos := loop inp w ?pool:w.pool ~k:!pos ~deadline:until ~failed (fun _ d ->
                  Samples.add pooled d);
              minor_gcs := !minor_gcs + ((gc_mark ()).minor_gcs - g0.minor_gcs));
          (fun until ->
             let g0 = gc_mark () in
             pos := loop inp w ~k:!pos ~deadline:until ~failed (fun i d ->
                 Samples.add single d;
                 Per_input.add plain i d);
             alloc := !alloc +. ((gc_mark ()).alloc_bytes -. g0.alloc_bytes));
          (fun until ->
             traced_step ();
             while now_ns () < until do traced_step () done) ];
      let na = Samples.length pooled and nb = Samples.length single in
      let nc = !k in
      (* cold-plan stages, replayed on fresh state *)
      let plan_tr =
        replay_plans ~reps:cold_reps
          [ ("core.maxmatch", fun () ->
                ignore (Morph.Maxmatch.max_match [ v2 ] [ trim ]);
                ignore (Morph.Maxmatch.max_match [ v2 ] [ trim ]));
            ("pbio.plan_compile", fun () ->
                ignore (Convert.compile ~from_:v2 ~into:trim : Convert.conv);
                ignore (Codec.compile_morph ~endian:Codec.Little ~from_:v2 ~into:trim)) ]
      in
      let deliveries = nc * nsinks in
      let per_delivery name = Trace.total tr name /. float_of_int deliveries in
      let per_event name = Trace.total tr name /. float_of_int nc in
      let per_plan name = Trace.total plan_tr name /. float_of_int cold_reps /. 1e3 in
      let hits, colds =
        Array.fold_left
          (fun (h, c) (s : Echo.Fanout.sink) ->
             let x = R.stats s.Echo.Fanout.receiver in
             (h + x.R.cache_hits, c + x.R.cold_paths))
          (0, 0) w.sinks
      in
      let event_us = Samples.sum pooled /. float_of_int na /. 1e3 in
      let width1_us = Samples.sum single /. float_of_int nb /. 1e3 in
      ( na + nb + nc,
        [ metric ~samples:cold_reps "core.maxmatch_us" (per_plan "core.maxmatch");
          metric ~samples:cold_reps "pbio.plan_compile_us" (per_plan "pbio.plan_compile");
          metric ~samples:nc "pbio.decode_ns" (per_event "pbio.decode");
          metric ~samples:nc "pbio.convert_ns" (per_event "pbio.convert");
          metric ~samples:deliveries "pbio.morph_ns" (per_delivery "pbio.morph");
          metric ~samples:(nb * nsinks) "pbio.alloc_bytes_per_delivery"
            (!alloc /. float_of_int (nb * nsinks));
          metric ~samples:(na * nsinks) "pbio.minor_gcs_per_kdelivery"
            (1000. *. float_of_int !minor_gcs /. float_of_int (na * nsinks));
          metric ~samples:na "echo.event_us" event_us;
          metric ~samples:nb "echo.width1_event_us" width1_us;
          metric ~samples:na "echo.pool_efficiency" (width1_us /. (float_of_int width *. event_us));
          metric ~samples:deliveries "core.dispatch_ns"
            ((!e2e_total -. !stage_total) /. float_of_int deliveries);
          metric ~samples:deliveries "core.handler_ns" (per_delivery "core.handler");
          metric "core.cache_hit_ratio" (float_of_int hits /. float_of_int (hits + colds));
          metric ~samples:nc "bench.stage_residual_frac"
            (stage_residual ~e2e:e2e_each ~stages:stage_each);
          metric ~samples:nc "bench.trace_overhead_frac" (Per_input.overhead ~traced ~plain) ],
        Trace.totals tr @ Trace.totals plan_tr )
    end
  in
  shutdown w;
  let failed = !failed + bad in
  { correct = failed = 0; attempted = (events + distinct) * nsinks; failed; metrics;
    context = context @ Rounds.context rs; spans }
