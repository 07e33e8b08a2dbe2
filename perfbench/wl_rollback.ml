(* rollback: Figure 10 end to end.  A seeded stream of ChannelOpenResponse
   v2.0 wire messages (1 KB / 10 KB / 100 KB unencoded; 39% / 58.5% /
   2.5% of messages) is delivered by [Morph.Receiver.deliver_wire] to a
   receiver that registers only v1.0, so every message is morphed by the
   Figure 5 Ecode on one domain.  Reference: the XSLT pipeline of
   Figure 10. *)

open Pbio
open Util
module WF = Echo.Wire_formats
module R = Morph.Receiver

let v2 = WF.channel_open_response_v2
let v1 = WF.channel_open_response_v1
let meta = WF.response_v2_meta
let size_points = [| 1_000; 10_000; 100_000 |]
let variants = 4

(* Messages per block of the stream, per variant of each size.  The
   weights are synthetic, not measured traffic: they put the median
   inside the 10 KB class and the 99th percentile inside the 100 KB
   class, never on a class boundary.  Each block carries one
   100 KB message, the variant rotating from block to block. *)
let per_block = [| 4; 6 |]
let block = (variants * (per_block.(0) + per_block.(1))) + 1
let stream_len = block * 100

type inputs = {
  values : Value.t array;
  wires : string array;
  stream : int array;  (** indices into [wires], cycled by the closed loop *)
}

(* Members shaped like [WF.gen_members_full] (same host-name length), with
   seeded ports, ids and role flags. *)
let gen_value rng requested =
  let n = WF.members_for_unencoded_bytes requested in
  let members =
    List.init n (fun _ ->
        WF.member_v2_value
          ~host:(Printf.sprintf "node%04d.cc.gatech.edu" (Random.State.int rng 10_000))
          ~port:(1024 + Random.State.int rng 60_000)
          ~id:(Random.State.int rng 1_000_000)
          ~is_source:(Random.State.int rng 4 > 0)
          ~is_sink:(Random.State.int rng 4 > 0))
  in
  WF.response_v2_value ~channel:(Printf.sprintf "chan-%d" (Random.State.int rng 1000)) members

let make_inputs seed =
  let rng = Random.State.make [| 0x7b0c; seed |] in
  let values =
    Array.init (Array.length size_points * variants) (fun i ->
        gen_value rng size_points.(i / variants))
  in
  let wires = Array.map (fun v -> Wire.encode ~format_id:1 v2 v) values in
  let stream =
    Array.concat
      (List.init (stream_len / block) (fun b ->
           let small = List.init 2 (fun c ->
               List.init (variants * per_block.(c)) (fun i -> (c * variants) + (i mod variants))) in
           let a = Array.of_list (((2 * variants) + (b mod variants)) :: List.concat small) in
           shuffle rng a;
           a))
  in
  { values; wires; stream }

let input_digest inp =
  digest_strings (digest_ints inp.stream :: Array.to_list inp.wires)

(* The Figure 10 baseline: XML encode, parse, XSLT, tree traversal. *)
let xslt_reference =
  let sheet = lazy (Xslt.Stylesheet.of_string WF.response_v2_to_v1_stylesheet) in
  fun value ->
    match Xmlkit.Xml_parser.parse (Xmlkit.Pbio_xml.encode v2 value) with
    | Error e -> failwith e
    | Ok doc ->
      Xmlkit.Pbio_xml.of_xml v1 (Xslt.Engine.apply_to_element (Lazy.force sheet) doc)

(* The receiver's handler: counts in the timed loops, captures one value
   while outputs are being verified. *)
type sink = { mutable count : int; mutable capture : bool; mutable captured : Value.t option }

let handler st v = if st.capture then st.captured <- Some v else st.count <- st.count + 1

let delivered = function R.Delivered { via = R.Morphed _; _ } -> true | _ -> false

let make_receiver st =
  let recv = R.create ~config:(R.Config.v ~ctx:(Ctx.create ()) ()) () in
  R.register recv v1 (handler st);
  recv

(* Receiver creation, registration and one warm-up delivery per distinct
   message (plans the pipeline, fills the codec plan cache). *)
let setup inp st =
  let recv = make_receiver st in
  let bad = ref 0 in
  Array.iter (fun w -> if not (delivered (R.deliver_wire recv meta w)) then incr bad) inp.wires;
  (recv, !bad)

let cold_reps = 41
let cold_per_round = 40

(* First delivery to a fresh receiver with a fresh context: MaxMatch,
   Figure 5 compile, decoder plan compile and the delivery itself.  The
   1 KB message keeps the transform's share small. *)
let cold_probe inp st ~failed () =
  let recv = make_receiver st in
  let t0 = now_ns () in
  let o = R.deliver_wire recv meta inp.wires.(0) in
  let d = now_ns () -. t0 in
  if not (delivered o) then incr failed;
  d

(* Deliver each distinct message once with capture on; compared against
   the reference after the timed loops. *)
let capture inp recv st =
  st.capture <- true;
  let got =
    Array.map
      (fun w ->
         st.captured <- None;
         if delivered (R.deliver_wire recv meta w) then st.captured else None)
      inp.wires
  in
  st.capture <- false;
  got

let verify inp got =
  let bad = ref 0 in
  Array.iteri
    (fun i g ->
       match g with
       | Some v when Value.equal v (xslt_reference inp.values.(i)) -> ()
       | _ -> incr bad)
    got;
  !bad

(* Closed loop from stream position [k] until [deadline]; [on] sees the
   input and the duration of each delivery.  Returns the next stream
   position. *)
let loop inp recv ~k ~deadline ~failed on =
  closed_loop ~stream:inp.stream ~k ~deadline
    ~deliver:(fun i -> R.deliver_wire recv meta inp.wires.(i))
    ~check:(fun o -> if not (delivered o) then incr failed)
    ~on

let run ~seed ~seconds ~trace : result =
  let inp = make_inputs seed in
  let st = { count = 0; capture = false; captured = None } in
  let failed = ref 0 in
  let timed_setup () =
    let (recv, bad), setup_s = timed (fun () -> setup inp st) in
    failed := !failed + bad;
    (recv, setup_s)
  in
  let recv, setup0 = timed_setup () in
  let got = capture inp recv st in
  let context =
    [ ("input_digest", input_digest inp);
      ("wire_bytes",
       String.concat "/"
         (List.map (fun c -> string_of_int (String.length inp.wires.(c * variants))) [ 0; 1; 2 ])) ]
  in
  let rs = Rounds.create () in
  let attempted, metrics, spans =
    if not trace then begin
      (* each round: a fresh receiver, the closed loop, then a fixed burst
         of cold deliveries *)
      let k, cold_n =
        closed_rounds rs ~seconds ~first:(recv, setup0) ~setup:timed_setup
          ~window:(fun recv ~k ~deadline on -> loop inp recv ~k ~deadline ~failed on)
          ~cold:(fun _ -> repeat cold_per_round (cold_probe inp st ~failed))
          ~release:ignore ~units:1
      in
      (k + cold_n, Rounds.metrics rs ~samples:k, [])
    end
    else begin
      (* 30% untraced: allocation and minor GCs per delivery *)
      let g0 = gc_mark () in
      let t0 = now_ns () in
      let n0 = loop inp recv ~k:0 ~deadline:(t0 +. (seconds *. 0.3e9)) ~failed (fun _ _ -> ()) in
      let g1 = gc_mark () in
      (* 70% alternating: untraced segments give the e2e baseline of the
         trace overhead; traced ones record the real delivery as one span
         and replay its stages through the same public functions *)
      let ctx = Ctx.create () in
      let xf =
        match Morph.Xform.compile ~source:v2 (List.hd meta.Meta.xforms) with
        | Ok c -> c.Morph.Xform.run
        | Error e -> failwith (Err.to_string e)
      in
      (* warm the replay's decoder plan outside the spans *)
      ignore (Wire.decode ~ctx v2 inp.wires.(0));
      let tr = Trace.create () in
      let plain = Per_input.create (Array.length inp.wires) in
      let traced = Per_input.create (Array.length inp.wires) in
      let e2e_total = ref 0. and stage_total = ref 0. in
      let e2e_each = Samples.create () and stage_each = Samples.create () in
      let pos = ref n0 and k = ref 0 in
      let traced_step () =
        let i = inp.stream.(!pos mod stream_len) in
        let w = inp.wires.(i) in
        let e2e () =
          let o, d = Trace.span tr "core.deliver" (fun () -> R.deliver_wire recv meta w) in
          if not (delivered o) then incr failed;
          Per_input.add traced i d;
          e2e_total := !e2e_total +. d
        in
        let replay () =
          let v, d1 =
            Trace.span tr "pbio.decode" (fun () ->
                match Wire.decode ~ctx v2 w with Ok v -> v | Error e -> failwith (Err.to_string e))
          in
          let v', d2 = Trace.span tr "ecode.transform" (fun () -> xf v) in
          let (), d3 = Trace.span tr "core.handler" (fun () -> handler st v') in
          stage_total := !stage_total +. d1 +. d2 +. d3
        in
        let e0 = !e2e_total and s0 = !stage_total in
        alternate !k ~e2e ~replay;
        Samples.add e2e_each (!e2e_total -. e0);
        Samples.add stage_each (!stage_total -. s0);
        incr k;
        incr pos
      in
      cycle ~deadline:(now_ns () +. (seconds *. 0.7e9))
        [ (fun until ->
              pos := loop inp recv ~k:!pos ~deadline:until ~failed (Per_input.add plain));
          (fun until ->
             traced_step ();
             while now_ns () < until do traced_step () done) ];
      let n1 = !k in
      (* cold-plan stages, replayed on fresh state *)
      let plan_tr =
        replay_plans ~reps:cold_reps
          [ ("core.maxmatch", fun () ->
                ignore (Morph.Maxmatch.max_match [ v2 ] [ v1 ]);
                ignore (Morph.Maxmatch.max_match [ v2; v1 ] [ v1 ]));
            ("ecode.compile", fun () ->
                ignore (Morph.Xform.compile ~source:v2 (List.hd meta.Meta.xforms)));
            ("pbio.plan_compile", fun () ->
                ignore (Codec.compile_decode ~endian:Codec.Little v2)) ]
      in
      let per_msg name = Trace.total tr name /. float_of_int n1 in
      let per_plan name = Trace.total plan_tr name /. float_of_int cold_reps /. 1e3 in
      let stats = R.stats recv in
      let n = !pos in
      ( n,
        [ metric ~samples:n1 "ecode.transform_ns" (per_msg "ecode.transform");
          metric ~samples:cold_reps "ecode.compile_us" (per_plan "ecode.compile");
          metric ~samples:n1 "ecode.hops_per_msg" 1.;
          metric ~samples:cold_reps "core.maxmatch_us" (per_plan "core.maxmatch");
          metric ~samples:cold_reps "pbio.plan_compile_us" (per_plan "pbio.plan_compile");
          metric ~samples:n1 "pbio.decode_ns" (per_msg "pbio.decode");
          metric ~samples:n0 "pbio.alloc_bytes_per_delivery"
            ((g1.alloc_bytes -. g0.alloc_bytes) /. float_of_int n0);
          metric ~samples:n0 "pbio.minor_gcs_per_kdelivery"
            (1000. *. float_of_int (g1.minor_gcs - g0.minor_gcs) /. float_of_int n0);
          metric ~samples:n1 "core.dispatch_ns" ((!e2e_total -. !stage_total) /. float_of_int n1);
          metric ~samples:n1 "core.handler_ns" (per_msg "core.handler");
          metric "core.cache_hit_ratio"
            (float_of_int stats.R.cache_hits
             /. float_of_int (stats.R.cache_hits + stats.R.cold_paths));
          metric ~samples:n1 "bench.stage_residual_frac"
            (stage_residual ~e2e:e2e_each ~stages:stage_each);
          metric ~samples:n1 "bench.trace_overhead_frac" (Per_input.overhead ~traced ~plain) ],
        Trace.totals tr @ Trace.totals plan_tr )
    end
  in
  let bad = verify inp got in
  let failed = !failed + bad in
  { correct = failed = 0; attempted = attempted + Array.length inp.wires; failed;
    metrics; context = context @ Rounds.context rs; spans }
