(* perfbench: one benchmark for hpt.

   bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0: set the workload up, run whole rounds of its operations
   for at least S seconds as a closed loop with one caller, setting up
   again before every later round (reporting the median set-up time),
   check every answer, and print the end-to-end metrics.

   --trace 1: set up once and run one round through the public
   functions of each layer, timing each call, and print the per-layer
   metrics.  Every per-layer metric is printed: those the workload does
   not reach come from a traced round of the other workload, of the
   .fts models or of a serve session, on the same seed.

   The last line of standard output is one JSON object.  A failed check
   or an unfinished workload exits 1 naming the workload, the operation
   and the check. *)

open Perfbench
open Util

(* ---------------------------------------------------------------- *)
(* The timed phase                                                   *)
(* ---------------------------------------------------------------- *)

(* One round: the latencies of its answered operations and its
   length, both in seconds. *)
type round = { latencies : float list; duration : float }

type timed = {
  rounds : round list;
  setups : float list;  (* seconds per set-up before a later round *)
  attempted : int;
  failed : int;
  elapsed : float;
}

(* Run whole rounds until [seconds] have passed.  Before every round
   but the first, [setup] (which made the rounds' inputs) runs again,
   timed and dropped, so the set-up times sample the same stretch of
   the run as the rounds.  Each set-up and each round starts on a
   collected heap, as the first set-up does at process start.
   [round k] runs the k-th round and returns one outcome per operation:
   its latency, or [None] when it failed.  [aside ()] runs after each
   round, outside the round's length, and says whether each of its
   operations answered; they count in [attempted] and [failed] only. *)
let run_rounds ~seconds ~setup ?(aside = fun () -> []) (round : int -> float option list) =
  let rounds = ref [] and setups = ref [] and attempted = ref 0 and failed = ref 0 in
  let t0 = now () in
  while !rounds = [] || now () -. t0 < seconds do
    if !rounds <> [] then begin
      Gc.full_major ();
      setups := snd (time (fun () -> Sys.opaque_identity (setup ()))) :: !setups
    end;
    Gc.full_major ();
    let r0 = now () in
    let outcomes = round (List.length !rounds) in
    let duration = now () -. r0 in
    let aside_ok, aside_s = time aside in
    Printf.eprintf "perfbench: round %d %.3f s (aside %.3f s)\n%!" (List.length !rounds) duration
      aside_s;
    attempted := !attempted + List.length outcomes + List.length aside_ok;
    failed :=
      !failed
      + List.length (List.filter Option.is_none outcomes)
      + List.length (List.filter not aside_ok);
    rounds := { latencies = List.filter_map Fun.id outcomes; duration } :: !rounds
  done;
  {
    rounds = List.rev !rounds;
    setups = !setups;
    attempted = !attempted;
    failed = !failed;
    elapsed = now () -. t0;
  }

(* Time every operation of a round; check on later rounds that each
   answer equals round 0's, which the oracles check after the run. *)
let round_of ops ~same ~ok first k =
  List.init (Array.length ops) (fun i ->
      let name, op = ops.(i) in
      let r, dt = time op in
      (match first.(i) with
      | None -> first.(i) <- Some r
      | Some r0 ->
          if not (same r r0) then
            fail ~op:name ~check:"same-answer-every-round" "round %d differs from round 0" k);
      if ok r then Some dt else None)

type metric = string * float * string

let ms s = s *. 1000.

(* Timings are computed per round and reported for the median round;
   [first_setup] joins the set-ups timed between rounds.  Every round
   does the same work, but a shared host's speed comes in phases that
   last from seconds to past a whole run: on a 2-vCPU VM, rounds of one
   run took 1.7-2.7 s and those of another 3.4-3.7 s.  Over ten runs of
   each workload the median round's throughput spread less than that of
   the faster quartile of rounds, the fastest round or per-operation
   quantiles, and its latencies least or close to least. *)
let end_to_end ~first_setup ~tail_pct ~rss (t : timed) : metric list =
  let mid stat = median (List.map stat t.rounds) in
  [
    ("setup_s", median (first_setup :: t.setups), "s");
    ( "ops_per_s",
      1. /. mid (fun r -> r.duration /. float_of_int (List.length r.latencies)),
      "1/s" );
    ("latency_p50_ms", ms (mid (fun r -> median r.latencies)), "ms");
    ("latency_tail_ms", ms (mid (fun r -> percentile tail_pct r.latencies)), "ms");
    ("peak_rss_mb", rss, "MiB");
  ]

(* ---------------------------------------------------------------- *)
(* The traced pass                                                   *)
(* ---------------------------------------------------------------- *)

(* A traced pass times its calls as spans of a [Telemetry] collector
   and counts into its counters; [span_ms] reads a span's total back. *)
let span_ms tel =
  let totals = Telemetry.span_totals (Telemetry.report tel) in
  fun name -> Option.fold ~none:0. ~some:(fun ns -> ns /. 1e6) (List.assoc_opt name totals)

let timings total names : metric list = List.map (fun s -> (s ^ "_ms", total s, "ms")) names

let count tel name : metric = (name, float_of_int (Telemetry.counter tel name), "count")

(* The OCaml runtime, read from outside through the Gc counters. *)
let with_runtime f =
  let w0 = minor_words () and g0 = major_collections () in
  let attempted, failed, metrics = f () in
  ( attempted,
    failed,
    metrics
    @ [
        ("runtime.alloc_mw", (minor_words () -. w0) /. 1e6, "Mw");
        ("runtime.major_gcs", float_of_int (major_collections () - g0), "count");
      ] )

(* ---------------------------------------------------------------- *)
(* formula-classify                                                  *)
(* ---------------------------------------------------------------- *)

let formula_pairs = 560

let formula_run ~seed ~seconds =
  let setup () = Formulas.generate ~seed ~pairs:formula_pairs in
  let corpus, first_setup = time setup in
  (* the child's limit leaves room for an ordinary classification *)
  if not (Formulas.classify_in_child ("p,q", "[] (p -> <> q)")) then
    fail ~op:"hpt classify [] (p -> <> q)" ~check:"child-process-answers"
      "%s fails under the child's memory limit" hpt_binary;
  let inputs = corpus.Formulas.inputs in
  let ops = Array.map (fun i -> (Formulas.describe i, fun () -> Formulas.run_op i)) inputs in
  let first = Array.make (Array.length ops) None in
  (* The F1 input runs aside from the round: it fails every time, and
     its time is how fast the child reaches the memory limit. *)
  let t =
    run_rounds ~seconds ~setup
      ~aside:(fun () -> List.map Formulas.classify_in_child Formulas.f1_inputs)
      (round_of ops ~same:( = ) ~ok:Result.is_ok first)
  in
  Formulas.check ~seed corpus (Array.map Option.get first);
  (t, end_to_end ~first_setup ~tail_pct:99. ~rss:(peak_rss_mb "self") t)

(* The front door, then its stages called one by one in its order.
   [core.engine_ms], the engine's glue, is the front door's time less
   its stages' on the median input, times the number of inputs: a plain
   sum would carry the heavy inputs' differences between two calls of
   the same 100-ms search, which exceed the glue and take either
   sign. *)
let formula_trace ~seed =
  let tel = Telemetry.collector () in
  let corpus = Formulas.generate ~seed ~pairs:formula_pairs in
  with_runtime @@ fun () ->
  let stages =
    [ "logic.parse"; "logic.shape"; "finitary.regex"; "omega.translate"; "omega.columns";
      "omega.liveness"; "omega.uniform_liveness"; "omega.counter_free" ]
  in
  let stage name f = Telemetry.span tel name f in
  let glue = ref [] in
  Array.iter
    (fun input ->
      let r, front = time (fun () -> Formulas.run_op input) in
      (match r with
      | Ok rep when rep.Hierarchy.Engine.exhausted <> None -> Telemetry.incr tel "omega.degraded"
      | _ -> ());
      let automaton, staged =
        time @@ fun () ->
        let automaton =
          match input with
          | Formulas.Formula { text; props; _ } ->
              let f = stage "logic.parse" (fun () -> Logic.Parser.parse text) in
              ignore (stage "logic.shape" (fun () -> Logic.Shape.infer f));
              stage "omega.translate" (fun () ->
                  Omega.Of_formula.translate (Formulas.alphabet_of props) f)
          | Formulas.Regex { op; re } ->
              stage "finitary.regex" (fun () -> Some (Formulas.build_regex op re))
        in
        Option.iter
          (fun (a : Omega.Automaton.t) ->
            Telemetry.add tel "omega.states" a.n;
            ignore (stage "omega.columns" (fun () -> Omega.Classify.classify_budgeted a));
            ignore (stage "omega.liveness" (fun () -> Omega.Lang.is_liveness a));
            ignore (stage "omega.uniform_liveness" (fun () -> Omega.Lang.is_uniform_liveness a));
            ignore
              (stage "omega.counter_free" (fun () ->
                   try Omega.Counter_free.is_counter_free a
                   with Omega.Counter_free.Monoid_too_large _ -> false)))
          automaton;
        automaton
      in
      glue := (front -. staged) :: !glue;
      (* the rank search once more on its own: [omega.columns] runs it
         inside, so it is not one of the front door's stages *)
      Option.iter
        (fun a -> ignore (stage "omega.rank" (fun () -> Omega.Classify.reactivity_rank_opt a)))
        automaton)
    corpus.inputs;
  let failed =
    List.length (List.filter (fun i -> not (Formulas.classify_in_child i)) Formulas.f1_inputs)
  in
  let total = span_ms tel in
  ( Array.length corpus.inputs + List.length Formulas.f1_inputs,
    failed,
    timings total (stages @ [ "omega.rank" ])
    @ [ ("core.engine_ms", ms (median !glue *. float_of_int (List.length !glue)), "ms") ]
    @ List.map (count tel) [ "omega.states"; "omega.degraded" ] )

(* ---------------------------------------------------------------- *)
(* automata-scale                                                    *)
(* ---------------------------------------------------------------- *)

let pool_jobs = 2

(* The timed operations run on one domain.  On the 2-domain pool every
   minor collection stops both domains, so a stall of either vCPU stalls
   both: over ten seeds the pooled timings spread by 0.26-0.46 while this
   host was contended (0.05-0.19 while it was quiet).  The pool's effect
   is measured in the traced pass, pooled against sequential. *)
let automata_run ~seed ~seconds =
  let setup () = Automata.generate ~seed in
  let corpus, first_setup = time setup in
  let ops = Array.of_list (Automata.operations corpus) in
  let first = Array.make (Array.length ops) None in
  let t =
    run_rounds ~seconds ~setup
      (round_of (Array.map (fun (name, op, _) -> (name, op)) ops) ~same:Automata.same_answer
         ~ok:(fun _ -> true) first)
  in
  Array.iteri (fun i (_, _, check) -> check (Option.get first.(i))) ops;
  (t, end_to_end ~first_setup ~tail_pct:75. ~rss:(peak_rss_mb "self") t)

(* Each operation on the 2-domain pool, then again without a pool for
   the pool's gain per operation family.  The sweep automata, the pool
   site that wins, are timed under a name of their own so the other
   classify cases do not dilute their gain; [omega.columns_ms] counts
   both. *)
let automata_trace ~seed =
  let tel = Telemetry.collector () in
  let corpus = Automata.generate ~seed in
  Pool.with_pool ~jobs:pool_jobs @@ fun pool ->
  with_runtime @@ fun () ->
  let fresh = Automata.build in
  let timed_pair name pooled sequential =
    ignore (Telemetry.span tel name pooled);
    ignore (Telemetry.span tel ("sequential." ^ name) sequential)
  in
  Array.iter
    (fun (c : Automata.classify_case) ->
      Telemetry.add tel "omega.states" c.auto.n;
      ignore (Telemetry.span tel "kernel.scc" (fun () -> Omega.Automaton.sccs (fresh c.auto)));
      timed_pair
        (if Automata.is_sweep c then "omega.sweep" else "omega.columns")
        (fun () -> Omega.Classify.classify_budgeted ~pool (fresh c.auto))
        (fun () -> Omega.Classify.classify_budgeted (fresh c.auto)))
    corpus.classify;
  Array.iter
    (fun (c : Automata.inclusion_case) ->
      Telemetry.add tel "omega.states" (c.left.n + c.right.n);
      timed_pair "omega.inclusion"
        (fun () -> Omega.Lang.included ~pool (fresh c.left) (fresh c.right))
        (fun () -> Omega.Lang.included (fresh c.left) (fresh c.right)))
    corpus.inclusion;
  Array.iter
    (fun (c : Automata.closure_case) ->
      Telemetry.add tel "omega.states" c.closed.n;
      timed_pair "omega.closure"
        (fun () -> Omega.Lang.safety_closure ~pool (fresh c.closed))
        (fun () -> Omega.Lang.safety_closure (fresh c.closed)))
    corpus.closure;
  let total = span_ms tel in
  ( Array.length corpus.classify + Array.length corpus.inclusion + Array.length corpus.closure,
    0,
    [
      ("kernel.scc_ms", total "kernel.scc", "ms");
      ("omega.columns_ms", total "omega.columns" +. total "omega.sweep", "ms");
      ("omega.inclusion_ms", total "omega.inclusion", "ms");
      ("omega.closure_ms", total "omega.closure", "ms");
    ]
    @ List.map
        (fun family ->
          ( "pool.gain." ^ family,
            total ("sequential.omega." ^ family) /. total ("omega." ^ family),
            "x" ))
        [ "sweep"; "inclusion"; "closure" ]
    @ [ count tel "omega.states" ] )

(* ---------------------------------------------------------------- *)
(* The spec-analyze pass                                             *)
(* ---------------------------------------------------------------- *)

(* The .fts models have no timed workload: timed on their own, their
   rounds spread by up to 0.27 over ten seeds on a shared 2-vCPU VM,
   past any bound.  Every traced run makes one pass over them through
   the front door (lint, analyze and Check.holds, each answer checked)
   and through the fts and core.lint layers. *)

(* The front door on one model, each answer checked. *)
let spec_front_door (e : Models.entry) =
  let specs = List.map (fun (s : Models.spec) -> (s.sname, s.text)) e.model.specs in
  let answered op = function Ok v -> v | Error _ -> fail ~op ~check:"answered" "no verdict" in
  ignore (answered ("lint " ^ e.model.name) (Hierarchy.Engine.lint specs));
  Models.check_findings e
    (answered ("analyze " ^ e.model.name)
       (Hierarchy.Engine.analyze ~model:e.system (List.map (fun (n, t) -> (n, t, None)) specs)));
  List.iter2
    (fun s (_, f) -> Models.check_holds e s (Fts.Check.holds e.system f))
    e.model.specs e.formulas;
  2 + List.length specs

(* Reachability runs inside [Fts.Parse.parse] (it builds the system), so
   [fts.parse_ms] carries it; [fts.reach_ms] times listing the reachable
   states. *)
let spec_trace ~seed =
  let tel = Telemetry.collector () in
  let corpus = Models.generate ~seed in
  with_runtime @@ fun () ->
  let operations = Array.fold_left (fun n e -> n + spec_front_door e) 0 corpus in
  Array.iter
    (fun (e : Models.entry) ->
      let sys, _ = Telemetry.span tel "fts.parse" (fun () -> Fts.Parse.parse ~name:e.model.name e.text) in
      let reachable = Telemetry.span tel "fts.reach" (fun () -> Fts.System.reachable_states sys) in
      Telemetry.add tel "fts.states" (List.length reachable);
      ignore (Telemetry.span tel "core.lint" (fun () -> Hierarchy.Lint.lint e.formulas));
      List.iter
        (fun (_, f) ->
          ignore (Telemetry.span tel "fts.check" (fun () -> Fts.Check.holds sys f));
          let closure =
            Telemetry.span tel "fts.closure" (fun () ->
                Fts.Check.closure_automaton sys ~atoms:(Logic.Formula.atoms f))
          in
          Telemetry.add tel "fts.closure_states" closure.Omega.Automaton.n)
        e.formulas;
      ignore (Telemetry.span tel "fts.analyze" (fun () -> Fts.Analyze.analyze ~specs:e.formulas sys)))
    corpus;
  let total = span_ms tel in
  ( operations,
    0,
    timings total [ "fts.parse"; "fts.reach"; "fts.check"; "fts.closure"; "fts.analyze"; "core.lint" ]
    @ List.map (count tel) [ "fts.states"; "fts.closure_states" ] )

(* ---------------------------------------------------------------- *)
(* The serve-session pass                                            *)
(* ---------------------------------------------------------------- *)

(* Like the models, the serve session has no timed workload: its
   microsecond round trips between two processes follow the host's
   scheduling, and over ten seeds its ops_per_s spread by 0.65-0.73
   while the host was contended (0.08-0.26 while it was quiet).  Every
   traced run sends one round of frames to a daemon, checks every reply
   and times the serve layer. *)

let frames mix round = Array.mapi (fun i item -> (Session.frame_id ~round i, Session.frame ~round i item)) mix

(* Start the daemon; stop it when [f] returns or raises. *)
let with_daemon f =
  let d = Session.start () in
  Fun.protect ~finally:(fun () -> Session.stop d) (fun () -> f d)

(* One round through the daemon, then the same frames through the
   daemon's layers in-process: decode every frame; run the engine and
   render a body for each cache miss; render every reply.  The client's
   latency less those is the time spent in the pipe, admission, queue
   and hand-off to the worker. *)
let serve_trace ~seed =
  let tel = Telemetry.collector () in
  let mix = Session.generate ~seed in
  with_runtime @@ fun () ->
  let fr = frames mix 0 in
  let replies, latency, (hits, misses) =
    with_daemon @@ fun d ->
    let replies, latency = Session.exchange d fr in
    (replies, latency, Session.stats d)
  in
  Array.iteri (fun i (_, frame) -> Session.check ~item:mix.(i) ~frame ~reply:replies.(i)) fr;
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun (_, line) ->
      let decoded =
        Telemetry.span tel "serve.decode" (fun () ->
            Result.bind (Result.map_error ignore (Serve.Json.of_string line)) (fun j ->
                Result.map_error ignore (Serve.Protocol.parse_request j)))
      in
      match decoded with
      | Error () -> ()
      | Ok req ->
          (* the daemon's response cache, keyed as the daemon keys it *)
          let key = Serve.Protocol.cache_key req in
          let body =
            match Option.bind key (Hashtbl.find_opt seen) with
            | Some body -> body
            | None ->
                let render_body = Telemetry.span tel "serve.engine" (fun () -> Session.answer req) in
                let body = Telemetry.span tel "serve.render" render_body in
                Option.iter (fun k -> Hashtbl.replace seen k body) key;
                body
          in
          ignore (Telemetry.span tel "serve.render" (fun () -> Serve.Protocol.render ~id:req.id body)))
    fr;
  let total = span_ms tel in
  let stages = [ "serve.decode"; "serve.render"; "serve.engine" ] in
  let wait =
    ms (Array.fold_left ( +. ) 0. latency) -. List.fold_left (fun acc s -> acc +. total s) 0. stages
  in
  ( Array.length fr,
    0,
    timings total stages
    @ [
        ("serve.wait_ms", wait, "ms");
        ("serve.cache_hits", float_of_int hits, "count");
        ("serve.cache_misses", float_of_int misses, "count");
      ] )

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

let workloads =
  [ ("formula-classify", formula_run); ("automata-scale", automata_run) ]

(* The traced passes: the workloads' inputs, the models and the serve
   session. *)
let passes =
  [
    ("formula-classify", formula_trace);
    ("automata-scale", automata_trace);
    ("spec-analyze", spec_trace);
    ("serve-session", serve_trace);
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. *)
let per_layer =
  [
    "logic.parse_ms"; "logic.shape_ms"; "finitary.regex_ms"; "omega.translate_ms";
    "omega.columns_ms"; "omega.rank_ms"; "omega.liveness_ms"; "omega.uniform_liveness_ms";
    "omega.counter_free_ms"; "omega.inclusion_ms"; "omega.closure_ms"; "omega.states";
    "omega.degraded"; "kernel.scc_ms"; "pool.gain.sweep"; "pool.gain.inclusion";
    "pool.gain.closure"; "fts.parse_ms"; "fts.reach_ms"; "fts.check_ms"; "fts.closure_ms";
    "fts.analyze_ms"; "fts.states"; "fts.closure_states"; "core.lint_ms"; "core.engine_ms";
    "serve.decode_ms"; "serve.render_ms"; "serve.engine_ms"; "serve.wait_ms";
    "serve.cache_hits"; "serve.cache_misses"; "runtime.alloc_mw"; "runtime.major_gcs";
  ]

(* The selected workload's traced pass first; each metric it lacks comes
   from the first other pass that has it.  [runtime.*] always describes
   the selected workload. *)
let traced name ~seed =
  let pass name trace =
    let r, dt = time (fun () -> trace ~seed) in
    Printf.eprintf "perfbench: traced round of %s %.3f s\n%!" name dt;
    r
  in
  let attempted, failed, own = pass name (List.assoc name passes) in
  let others =
    List.concat_map
      (fun (other, trace) ->
        if other = name then []
        else
          let _, _, ms = pass other trace in
          List.filter (fun (n, _, _) -> not (String.starts_with ~prefix:"runtime." n)) ms)
      passes
  in
  let all = own @ others in
  ( attempted,
    failed,
    List.map
      (fun m ->
        match List.find_opt (fun (n, _, _) -> n = m) all with
        | Some x -> x
        | None -> invalid_arg ("no traced pass measures " ^ m))
      per_layer )

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed m

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let name = !workload in
  match List.assoc_opt name workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some run -> (
      let result () =
        if !trace = 1 then begin
          let r, dt = time (fun () -> traced name ~seed:!seed) in
          Printf.eprintf "perfbench: %s: traced passes %.2f s\n%!" name dt;
          r
        end
        else begin
          let t, metrics = run ~seed:!seed ~seconds:!seconds in
          Printf.eprintf "perfbench: %s: %d rounds, %d attempted, %d failed, %.2f s\n%!" name
            (List.length t.rounds) t.attempted t.failed t.elapsed;
          (t.attempted, t.failed, metrics)
        end
      in
      match result () with
      | attempted, failed, metrics -> print_result ~attempted ~failed metrics
      | exception Check_failed { op; check; detail } ->
          Printf.eprintf "perfbench: workload %s: operation %s: check %s failed: %s\n%!" name op
            check detail;
          exit 1
      | exception e ->
          Printf.eprintf "perfbench: workload %s did not reach its end: %s\n%!" name
            (Printexc.to_string e);
          exit 1)
