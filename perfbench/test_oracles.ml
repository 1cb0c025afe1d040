(* Each oracle of the benchmark accepts the library's answers and
   rejects a deliberately wrong one: a flipped class, a mutated
   counterexample trace, a swapped serve reply. *)

open Perfbench

let failures = ref 0

let rejects name f =
  match f () with
  | exception Util.Check_failed { check; _ } -> Printf.printf "ok   %s (rejected by %s)\n" name check
  | () ->
      incr failures;
      Printf.printf "FAIL %s: the wrong answer was accepted\n" name

let accepts name f =
  match f () with
  | () -> Printf.printf "ok   %s\n" name
  | exception Util.Check_failed { op; check; detail } ->
      incr failures;
      Printf.printf "FAIL %s: %s: %s: %s\n" name op check detail

(* ---------------------------------------------------------------- *)

let formulas () =
  let seed = 7 in
  let corpus = Formulas.generate ~seed ~pairs:24 in
  let answers = Array.map Formulas.run_op corpus.inputs in
  accepts "formula answers pass" (fun () -> Formulas.check ~seed corpus answers);
  let first_formula =
    let rec go i = match corpus.inputs.(i) with Formulas.Formula _ -> i | _ -> go (i + 1) in
    go 0
  in
  let with_report i f =
    let a = Array.copy answers in
    a.(i) <- Result.map f a.(i);
    a
  in
  let i = first_formula in
  rejects "flipped class" (fun () ->
      let k =
        match answers.(i) with
        | Ok { verdict = Hierarchy.Engine.Exact Kappa.Reactivity _; _ } -> Kappa.Safety
        | _ -> Kappa.Reactivity 3
      in
      Formulas.check ~seed corpus
        (with_report i (fun r ->
             { r with verdict = Exact k; memberships = List.map (fun (c, _) -> (c, Some (c = k))) r.memberships })));
  rejects "membership row not upward-closed" (fun () ->
      Formulas.check ~seed corpus
        (with_report i (fun r ->
             { r with
               memberships =
                 List.map
                   (fun (c, v) ->
                     match c with
                     | Kappa.Safety -> (c, Some true)
                     | Kappa.Obligation 1 -> (c, Some false)
                     | _ -> (c, v))
                   r.memberships })));
  rejects "negation not dual" (fun () ->
      Formulas.check ~seed corpus
        (with_report i (fun r ->
             { r with
               memberships =
                 List.map
                   (fun (c, v) -> if c = Kappa.Recurrence then (c, Option.map not v) else (c, v))
                   r.memberships })));
  rejects "automaton disagrees with the semantics" (fun () ->
      let automata = Array.copy corpus.automata in
      automata.(i) <- Option.map Omega.Automaton.complement automata.(i);
      Formulas.check ~seed { corpus with automata } answers);
  let regex =
    let rec go j = match corpus.inputs.(j) with Formulas.Regex _ -> j | _ -> go (j + 1) in
    go 0
  in
  rejects "operator outside its class" (fun () ->
      Formulas.check ~seed corpus
        (with_report regex (fun r ->
             { r with memberships = List.map (fun (c, _) -> (c, Some false)) r.memberships })));
  (* the operator definitions against the A/E/R/P constructions *)
  let alpha = Finitary.Alphabet.of_chars Formulas.regex_chars in
  let d = Finitary.Regex.compile alpha "(a b)*" in
  let st = Random.State.make [| 3 |] in
  let wrong = ref 0 and told_apart = ref 0 in
  for _ = 1 to 200 do
    let w = Util.random_lasso st alpha ~max_prefix:4 ~max_cycle:4 in
    List.iter
      (fun op ->
        if Omega.Automaton.accepts (Formulas.build_regex op "(a b)*") w <> Formulas.regex_holds op d w
        then incr wrong)
      [ "A"; "E"; "R"; "P" ];
    if Omega.Automaton.accepts (Formulas.build_regex "R" "(a b)*") w <> Formulas.regex_holds "P" d w
    then incr told_apart
  done;
  accepts "operator definitions agree with A/E/R/P" (fun () ->
      if !wrong > 0 then Util.fail ~op:"(a b)*" ~check:"test" "%d disagreements" !wrong);
  accepts "operator definitions tell R from P" (fun () ->
      if !told_apart = 0 then Util.fail ~op:"(a b)*" ~check:"test" "R and P agree on 200 lassos")

(* ---------------------------------------------------------------- *)

let automata () =
  let small =
    Automata.
      {
        classify = [| single_scc (Util.rng ~seed:1 ~salt:0) ~n:50 ~recurrence:true |];
        inclusion = Array.of_list (safety_pair (Util.rng ~seed:1 ~salt:0) ~n:60);
        closure = [| closure_case (Util.rng ~seed:1 ~salt:0) ~n:80 ~conj:2 |];
      }
  in
  List.iter
    (fun (name, op, check) -> accepts ("planted answer passes: " ^ name) (fun () -> check (op ())))
    (Automata.operations small);
  let c = small.classify.(0) in
  rejects "flipped planted class" (fun () -> Automata.check_classify c (Automata.Class Kappa.Persistence));
  let not_included = small.inclusion.(1) in
  rejects "flipped inclusion" (fun () -> Automata.check_inclusion not_included (Automata.Included true));
  rejects "mutated counterexample lasso" (fun () ->
      let w = Option.get not_included.witness in
      (* drop the final 'b': the word never takes the extra bad edge *)
      let prefix = Array.sub w.prefix 0 (Array.length w.prefix - 1) in
      Automata.check_inclusion
        { not_included with witness = Some (Finitary.Word.lasso ~prefix ~cycle:w.cycle) }
        (Automata.Included false));
  let cl = small.closure.(0) in
  rejects "closure that is the automaton itself" (fun () ->
      Automata.check_closure cl (Automata.Closure (Automata.build cl.closed)))

(* ---------------------------------------------------------------- *)

let models () =
  let e = Models.load (Models.countdown ~n:12) in
  let spec = List.find (fun (s : Models.spec) -> s.sname = "never-zero") e.model.specs in
  let f = List.assoc "never-zero" e.formulas in
  let trace =
    match Fts.Check.holds e.system f with
    | Fts.Check.Fails t -> t
    | Holds -> failwith "never-zero holds on the countdown"
  in
  accepts "counterexample replays" (fun () -> Models.check_holds e spec (Fails trace));
  rejects "mutated counterexample trace" (fun () ->
      let bump (s, t) = (Array.mapi (fun i v -> if i = 0 then v + 1 else v) s, t) in
      let prefix = match trace.prefix with x :: y :: rest -> x :: bump y :: rest | l -> l in
      Models.check_holds e spec (Fails { trace with prefix }));
  rejects "counterexample that satisfies the requirement" (fun () ->
      let recur = List.find (fun (s : Models.spec) -> s.sname = "recur") e.model.specs in
      Models.check_holds e { recur with expect = None } (Fails trace));
  rejects "flipped verdict" (fun () -> Models.check_holds e spec Holds);
  let analyze () =
    match Hierarchy.Engine.analyze ~model:e.system
            (List.map (fun (s : Models.spec) -> (s.sname, s.text, None)) e.model.specs)
    with
    | Ok v -> v
    | Error _ -> failwith "analyze failed"
  in
  let v = analyze () in
  accepts "planted findings reported" (fun () -> Models.check_findings e v);
  rejects "planted finding missing" (fun () ->
      Models.check_findings e
        { v with
          diagnostics =
            List.filter
              (fun (d : Hierarchy.Lint.diagnostic) -> d.code <> Hierarchy.Lint.Model M302)
              v.diagnostics })

(* ---------------------------------------------------------------- *)

let session () =
  let mix = Array.sub (Session.generate ~seed:3) 0 60 in
  let frames = Array.mapi (fun i item -> Session.frame ~round:0 i item) mix in
  let replies =
    Array.map
      (fun fr ->
        match Session.expected fr with
        | Some r -> r
        | None -> "{\"id\":null,\"status\":\"error\",\"error\":{\"code\":\"parse_error\"}}")
      frames
  in
  accepts "library replies pass" (fun () ->
      Array.iteri (fun i fr -> Session.check ~item:mix.(i) ~frame:fr ~reply:replies.(i)) frames);
  let classify =
    List.filter
      (fun i -> match mix.(i) with Session.Hit _ | Session.Fresh _ -> true | _ -> false)
      (List.init (Array.length mix) Fun.id)
  in
  let i, j =
    match List.filter (fun j -> replies.(j) <> replies.(List.hd classify)) classify with
    | j :: _ -> (List.hd classify, j)
    | [] -> failwith "no two distinct replies"
  in
  rejects "swapped serve reply" (fun () ->
      Session.check ~item:mix.(i) ~frame:frames.(i) ~reply:replies.(j));
  let malformed =
    List.find (fun k -> Session.is_malformed mix.(k)) (List.init (Array.length mix) Fun.id)
  in
  rejects "malformed frame answered" (fun () ->
      Session.check ~item:mix.(malformed) ~frame:frames.(malformed) ~reply:replies.(i))

let () =
  formulas ();
  automata ();
  models ();
  session ();
  if !failures > 0 then begin
    Printf.printf "%d oracle test(s) failed\n" !failures;
    exit 1
  end
