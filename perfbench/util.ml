(* Shared plumbing for the workloads: the clock, latency sample buffers,
   per-round figures, span totals of the traced run, the closed loop and
   metric values. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* --- sample buffers ------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  (* Linear interpolation between closest ranks; [nan] when empty. *)
  let quantile t q =
    if t.n = 0 then Float.nan
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let i = int_of_float pos in
      if i >= t.n - 1 then s.(t.n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  let median t = quantile t 0.5
end

(* --- metric values ------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  samples : int;  (** how many observations the value summarises *)
}

let metric ?(samples = 1) name value = { name; value; samples }

(* A workload's verdict: every delivery either reached its handler with
   the reference value or counts as failed. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  context : (string * string) list;
      (** workload facts printed with the run: input digest, counts *)
  spans : (string * int * float) list;
      (** traced run only: span name, count, total ns *)
}

(* --- garbage collector counters ----------------------------------------- *)

type gc_mark = { alloc_bytes : float; minor_gcs : int }

let gc_mark () =
  { alloc_bytes = Gc.allocated_bytes ();
    minor_gcs = (Gc.quick_stat ()).Gc.minor_collections }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- host speed ------------------------------------------------------------ *)

(* The benchmark runs on shared virtual hosts whose speed drifts by up to
   1.6x over minutes, for every workload at once.  No statistic over one
   run can tell such a drift from a change to the program, so each round
   also times [probe], a fixed piece of work written here against the
   standard library only: it copies and scans 32 KB buffers and
   allocates nothing, so neither the program's code nor its heap or
   collector can change its time; only the host can.  Each time figure
   of a round is scaled by [reference_ns /. probe], giving the time on a
   host that runs the probe in [reference_ns]; rates by the inverse.  A
   change to the program moves the scaled figures in full.  (Of the
   probes tried, this one tracked the drift best: over 14 runs during a
   1.6x drift it cut the spread of rollback's rate from 0.24 to 0.04 of
   the median; a pure integer loop and a pointer walk over 1 MB tracked
   it poorly.) *)
module Host = struct
  let src = Bytes.init 65536 (fun i -> Char.unsafe_chr ((i * 131) land 255))
  let dst = Bytes.create 32768

  let work () =
    let acc = ref 0 in
    for i = 0 to 15 do
      Bytes.blit src ((i * 4099) land 32767) dst 0 32768;
      for j = 0 to 2047 do
        let c = Char.code (Bytes.unsafe_get dst ((j * 7) land 32767)) in
        if c land 1 = 0 then acc := !acc + c else acc := !acc lxor (c lsl 3)
      done
    done;
    Sys.opaque_identity !acc

  (* The probe's time on the reference host, in ns. *)
  let reference_ns = 100_000.

  (* One run of the probe, in ns. *)
  let probe () =
    let t0 = now_ns () in
    ignore (work () : int);
    now_ns () -. t0
end

(* --- rounds --------------------------------------------------------------- *)

(* An end-to-end run is a sequence of rounds: a fresh set-up, a window of
   closed-loop deliveries and a burst of cold deliveries, with host
   probes in between.  Each figure, set-up time included, is computed per
   round, scaled by the round's median probe (see [Host]) and reported as
   the median over the rounds, which also ignores slow spells that cover
   less than half of a run. *)
module Rounds = struct
  (* One value per round of each figure: rate (1/s), latency p50, p99 and
     cold p50 (ns), set-up (s). *)
  type figures = {
    rate : Samples.t;
    p50 : Samples.t;
    p99 : Samples.t;
    cold : Samples.t;
    setup : Samples.t;
  }

  type t = {
    wall : figures;  (** as measured *)
    scaled : figures;  (** on the reference host *)
    probe : Samples.t;  (** each round's median probe, ns *)
    mutable deliveries : int;
    mutable cold_n : int;
  }

  let count = 30

  let figures () =
    { rate = Samples.create (); p50 = Samples.create (); p99 = Samples.create ();
      cold = Samples.create (); setup = Samples.create () }

  let create () =
    { wall = figures (); scaled = figures (); probe = Samples.create (); deliveries = 0;
      cold_n = 0 }

  (* One round: [probes] its probe times (ns), [lat] per delivery unit
     (ns), [units] handler invocations over [wall_ns]; [cold] the round's
     cold deliveries. *)
  let add t ~probes ~setup_s ~lat ~units ~wall_ns ~cold =
    let probe = Samples.median probes in
    Samples.add t.probe probe;
    let put f k =
      Samples.add f.setup (setup_s *. k);
      Samples.add f.rate (float_of_int units /. (wall_ns *. 1e-9) /. k);
      Samples.add f.p50 (Samples.median lat *. k);
      Samples.add f.p99 (Samples.quantile lat 0.99 *. k);
      if Samples.length cold > 0 then Samples.add f.cold (Samples.median cold *. k)
    in
    put t.wall 1.;
    put t.scaled (Host.reference_ns /. probe);
    t.deliveries <- t.deliveries + units;
    t.cold_n <- t.cold_n + Samples.length cold

  (* The end-to-end metrics of [f], in the units BENCHMARK.json names;
     [samples] is the number of latency samples behind the percentiles. *)
  let figure_metrics t f ~samples =
    [ metric ~samples:t.deliveries "deliveries_per_s" (Samples.median f.rate);
      metric ~samples "latency_p50_us" (Samples.median f.p50 /. 1e3);
      metric ~samples "latency_p99_us" (Samples.median f.p99 /. 1e3);
      metric ~samples:t.cold_n "cold_delivery_p50_us" (Samples.median f.cold /. 1e3);
      metric ~samples:(Samples.length f.setup) "setup_s" (Samples.median f.setup);
      metric "peak_heap_mb" (peak_heap_mb ()) ]

  let metrics t ~samples = figure_metrics t t.scaled ~samples

  (* For the run's header: the time figures unscaled, and per round the
     delivery rate and the probe, which show how steady the host was.
     Nothing when no round ran (the traced run). *)
  let context t =
    let n = Samples.length t.probe in
    if n = 0 then []
    else
      let row (s : Samples.t) scale =
        String.concat " " (List.init n (fun i -> Printf.sprintf "%.0f" (s.Samples.a.(i) /. scale)))
      in
      List.filter_map
        (fun (m : metric) ->
           if m.name = "peak_heap_mb" then None
           else Some ("wall " ^ m.name, Printf.sprintf "%.4f" m.value))
        (figure_metrics t t.wall ~samples:0)
      @ [ ("probe_us", Printf.sprintf "%.1f" (Samples.median t.probe /. 1e3));
          ("round_rates", row t.wall.rate 1.); ("round_probe_us", row t.probe 1e3) ]
end

(* --- span totals ---------------------------------------------------------- *)

(* The traced run's spans, one per call into a layer, summed by name:
   count and total duration. *)
module Trace = struct
  type acc = { mutable count : int; mutable total_ns : float }

  type t = {
    acc : (string, acc) Hashtbl.t;
    mutable order : string list;  (** span names, most recently first seen first *)
  }

  let create () = { acc = Hashtbl.create 16; order = [] }

  (* Add a span of [d] ns to its name's count and total. *)
  let record t name d =
    match Hashtbl.find_opt t.acc name with
    | Some a ->
      a.count <- a.count + 1;
      a.total_ns <- a.total_ns +. d
    | None ->
      Hashtbl.replace t.acc name { count = 1; total_ns = d };
      t.order <- name :: t.order

  (* Run [f] inside a span; returns its result and duration in ns. *)
  let span t name f =
    let t0 = now_ns () in
    let r = f () in
    let d = now_ns () -. t0 in
    record t name d;
    (r, d)

  (* (name, count, total ns) per span name, in first-seen order. *)
  let totals t =
    List.rev_map
      (fun name ->
         let a = Hashtbl.find t.acc name in
         (name, a.count, a.total_ns))
      t.order

  let total t name =
    match Hashtbl.find_opt t.acc name with Some a -> a.total_ns | None -> 0.
end

(* --- input digest -------------------------------------------------------- *)

(* Digest of everything the program is fed: same seed, same digest. *)
let digest_strings (parts : string list) =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let digest_ints (a : int array) =
  String.concat "," (Array.to_list (Array.map string_of_int a))

(* --- workload helpers ---------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A closed-loop input stream of [len] indices over [distinct] inputs:
   every input once per block of [distinct], each block in a seeded
   order, so any stretch of the loop sees the same input mix. *)
let block_stream rng ~distinct ~len =
  Array.concat
    (List.init (len / distinct) (fun _ ->
         let b = Array.init distinct Fun.id in
         shuffle rng b;
         b))

(* [f ()] and its duration in seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, (now_ns () -. t0) *. 1e-9)

(* Closed loop over [stream] from position [k] until [deadline], at least
   one delivery: [deliver i] delivers input [i] (timed) and returns its
   outcome, [check] sees the outcome and [on] the input and the duration
   in ns.  Returns the next stream position. *)
let closed_loop ~stream ~k ~deadline ~deliver ~check ~on =
  let n = Array.length stream in
  let k0 = k in
  let k = ref k in
  while !k = k0 || now_ns () < deadline do
    let i = stream.(!k mod n) in
    let t0 = now_ns () in
    let o = deliver i in
    let d = now_ns () -. t0 in
    check o;
    on i d;
    incr k
  done;
  !k

(* The end-to-end run of a workload with a set-up per round: round 0
   uses [first], every later round a fresh [setup ()]: the world and its
   set-up time in seconds.  Each round spends 90% of its share of
   [seconds] in [window w ~k ~deadline on] (a closed loop from stream
   position [k] returning the next), cut into slices of [probe_every_ns]
   with a host probe before each, then takes [cold w], a burst of cold
   deliveries, then [release w].  Each loop iteration is [units] handler
   invocations.  Returns the deliveries looped and the cold deliveries
   made. *)
let probe_every_ns = 0.05e9

let closed_rounds rs ~seconds ~first ~setup ~window ~cold ~release ~units =
  let slot = seconds *. 1e9 /. float_of_int Rounds.count in
  let k = ref 0 and cold_n = ref 0 in
  for r = 0 to Rounds.count - 1 do
    let w, setup_s = if r = 0 then first else setup () in
    let lat = Samples.create () and probes = Samples.create () in
    let stop = now_ns () +. (0.9 *. slot) in
    let k0 = !k and wall_ns = ref 0. in
    while !k = k0 || now_ns () < stop do
      Samples.add probes (Host.probe ());
      let t0 = now_ns () in
      k := window w ~k:!k ~deadline:(Float.min stop (t0 +. probe_every_ns))
          (fun _ d -> Samples.add lat d);
      wall_ns := !wall_ns +. (now_ns () -. t0)
    done;
    let c = cold w in
    release w;
    Rounds.add rs ~probes ~setup_s ~lat ~units:((!k - k0) * units) ~wall_ns:!wall_ns ~cold:c;
    cold_n := !cold_n + Samples.length c
  done;
  (!k, !cold_n)

(* One traced delivery: the real delivery [e2e ()] and the replay of its
   stages [replay ()], their order alternating with [k] so neither always
   gets the warmer cache. *)
let alternate k ~e2e ~replay =
  if k land 1 = 0 then begin e2e (); replay () end
  else begin replay (); e2e () end

(* Cold-plan stages replayed [reps] times on fresh state, one span each. *)
let replay_plans ~reps stages =
  let tr = Trace.create () in
  for _ = 1 to reps do
    List.iter (fun (name, f) -> ignore (Trace.span tr name f)) stages
  done;
  tr

(* The traced run cycles through segments of at most this length
   (untraced, traced, ...), so every kind sees the host at the same speed
   and the difference between untraced and traced is the tracing
   overhead. *)
let segment_ns = 0.25e9

(* Run the segment functions in turn until [deadline]; each is given its
   segment's end and runs at least once.  Short runs get shorter
   segments, so that every kind still runs in at least 8 of them. *)
let cycle ~deadline segments =
  let segs = Array.of_list segments in
  let len =
    Float.min segment_ns ((deadline -. now_ns ()) /. float_of_int (8 * Array.length segs))
  in
  let i = ref 0 in
  while !i < Array.length segs || now_ns () < deadline do
    segs.(!i mod Array.length segs) (Float.min deadline (now_ns () +. len));
    incr i
  done

(* [n] samples of a probe that returns one duration. *)
let repeat n f =
  let s = Samples.create () in
  for _ = 1 to n do
    Samples.add s (f ())
  done;
  s

(* The tolerance the traced run holds the replayed stages to: on the
   workloads whose whole delivery is replayed (rollback, fanout), the
   stages must account for the delivery within this share, or the run is
   not correct. *)
let max_stage_residual = 0.10

(* The residual the traced run holds to that tolerance, from each traced
   delivery's e2e time and the sum of its replayed stages:
   |Σ e2e − Σ stages| ÷ Σ e2e over the deliveries, leaving out the 5%
   with the highest and the 5% with the lowest (e2e − stages) ÷ e2e.  A
   collection or a host stall that lands on one side of a single
   delivery would otherwise move a short run's sums past the tolerance. *)
let stage_residual ~(e2e : Samples.t) ~(stages : Samples.t) =
  let n = Samples.length e2e in
  let r i = (e2e.Samples.a.(i) -. stages.Samples.a.(i)) /. e2e.Samples.a.(i) in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare (r i) (r j)) idx;
  let cut = n / 20 and se = ref 0. and ss = ref 0. in
  for k = cut to n - 1 - cut do
    se := !se +. e2e.Samples.a.(idx.(k));
    ss := !ss +. stages.Samples.a.(idx.(k))
  done;
  Float.abs (!se -. !ss) /. !se

(* Per-input e2e sums, so the traced and untraced runs can be compared
   over the same input mix (trace overhead without mix noise). *)
module Per_input = struct
  type t = { sum : float array; cnt : int array }

  let create n = { sum = Array.make n 0.; cnt = Array.make n 0 }

  let add t i d =
    t.sum.(i) <- t.sum.(i) +. d;
    t.cnt.(i) <- t.cnt.(i) + 1

  (* Σ_i traced_i / Σ_i n_i·mean_plain_i - 1 over inputs seen by both,
     n_i the traced count: the traced total against what the same inputs
     cost untraced. *)
  let overhead ~traced ~plain =
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun i c ->
         if c > 0 && plain.cnt.(i) > 0 then begin
           num := !num +. traced.sum.(i);
           den := !den +. (float_of_int c *. plain.sum.(i) /. float_of_int plain.cnt.(i))
         end)
      traced.cnt;
    if !den > 0. then (!num /. !den) -. 1. else 0.
end
