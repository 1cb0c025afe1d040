(* The fault register: list the formula-classify inputs that hit each
   known fault for a seed, and count them.

     faults.exe --seed N [--confirm]

   F1  Lang.is_uniform_liveness exhausts memory: the fixed F1 inputs and
       the seeded candidates the generator screened out for it.  With
       --confirm each is classified by hpt in a child process under a
       memory limit, and "aborts" or "answers" is printed.
   F2  an exact class reported as degraded (the rank search ran after
       the class was decided and hit its limit).
   F3  an interval whose two bounds coincide, reported as degraded. *)

open Perfbench

let () =
  let seed = ref 1 and confirm = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N corpus seed");
      ("--confirm", Arg.Set confirm, " classify F1 inputs in a memory-limited child hpt");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "faults.exe --seed N [--confirm]";
  let corpus = Formulas.generate ~seed:!seed ~pairs:560 in
  let f1 =
    List.map (fun (p, t) -> (p, t, "fixed")) Formulas.f1_inputs
    @ List.map (fun (p, t, bits) -> (p, t, Printf.sprintf "screened, %.0f bits" bits)) corpus.excluded
  in
  List.iter
    (fun (props, text, why) ->
      let outcome =
        if !confirm then
          if Formulas.classify_in_child (props, text) then " answers" else " aborts"
        else ""
      in
      Printf.printf "F1 --props %s %S (%s)%s\n" props text why outcome)
    f1;
  let f2 = ref 0 and f3 = ref 0 in
  Array.iter
    (fun input ->
      match Formulas.run_op input with
      | Ok { Hierarchy.Engine.exhausted = Some _; verdict; _ } -> (
          match verdict with
          | Hierarchy.Engine.Exact k ->
              incr f2;
              Printf.printf "F2 %s: %s, degraded\n" (Formulas.describe input) (Kappa.name k)
          | Interval { lower = Some a; upper = Some b } when Kappa.equal a b ->
              incr f3;
              Printf.printf "F3 %s: between %s and %s\n" (Formulas.describe input) (Kappa.name a)
                (Kappa.name b)
          | Interval _ -> ())
      | _ -> ())
    corpus.inputs;
  Printf.printf "seed %d: F1 %d (%d fixed, %d screened), F2 %d, F3 %d of %d inputs\n" !seed
    (List.length f1) (List.length Formulas.f1_inputs) (List.length corpus.excluded) !f2 !f3
    (Array.length corpus.inputs)
