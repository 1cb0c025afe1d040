(* The spec-analyze corpus: seeded parametric fair transition systems
   (countdown, mutex and request/grant families, some with planted
   faults), rendered to the .fts format, each with its requirements.
   The generator keeps its own reading of every model, which the
   oracles use to replay counterexample traces. *)

open Util

type cond = Eq of string * int | Not of cond | All of cond list

type rhs = Const of int | Plus of string * int

type trans = { tname : string; guard : cond; branches : (string * rhs) list list }

type spec = {
  sname : string;
  text : string;
  expect : bool option;  (* planted verdict of [Check.holds], when known *)
}

type model = {
  name : string;
  vars : (string * int * int) list;
  init : (string * int) list;
  trans : trans list;
  fair : string list;  (* weakly fair transitions *)
  specs : spec list;
  planted : (Fts.Analyze.code * string option) list;
      (* findings the analysis must report: code and requirement *)
}

(* ---------------------------------------------------------------- *)
(* Rendering and the generator's own semantics                       *)
(* ---------------------------------------------------------------- *)

let rec render_cond = function
  | Eq (x, v) -> Printf.sprintf "%s=%d" x v
  | Not c -> Printf.sprintf "!(%s)" (render_cond c)
  | All cs -> "(" ^ String.concat " & " (List.map render_cond cs) ^ ")"

let render_rhs = function
  | Const k -> string_of_int k
  | Plus (x, k) when k >= 0 -> Printf.sprintf "%s+%d" x k
  | Plus (x, k) -> Printf.sprintf "%s-%d" x (-k)

let render m =
  let b = Buffer.create 512 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  line "# %s" m.name;
  List.iter (fun (x, lo, hi) -> line "var %s %d..%d" x lo hi) m.vars;
  line "init %s" (String.concat ", " (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) m.init));
  List.iter
    (fun t ->
      line "trans %s: %s -> %s" t.tname (render_cond t.guard)
        (String.concat " | "
           (List.map
              (fun br ->
                String.concat ", "
                  (List.map (fun (x, r) -> Printf.sprintf "%s:=%s" x (render_rhs r)) br))
              t.branches)))
    m.trans;
  List.iter (fun t -> line "fair weak %s" t) m.fair;
  Buffer.contents b

let index m x =
  let rec go i = function
    | [] -> invalid_arg ("unknown variable " ^ x)
    | (y, _, _) :: rest -> if x = y then i else go (i + 1) rest
  in
  go 0 m.vars

let rec eval m s = function
  | Eq (x, v) -> s.(index m x) = v
  | Not c -> not (eval m s c)
  | All cs -> List.for_all (eval m s) cs

let successors m t s =
  if not (eval m s t.guard) then []
  else
    List.map
      (fun br ->
        let s' = Array.copy s in
        List.iter
          (fun (x, r) ->
            s'.(index m x) <- (match r with Const k -> k | Plus (y, k) -> s.(index m y) + k))
          br;
        s')
      t.branches

(* A specification atom: [x=3], or [x] for "x is nonzero". *)
let atom_holds m s a =
  match String.index_opt a '=' with
  | Some i ->
      s.(index m (String.sub a 0 i))
      = int_of_string (String.sub a (i + 1) (String.length a - i - 1))
  | None -> s.(index m a) <> 0

(* ---------------------------------------------------------------- *)
(* Families                                                          *)
(* ---------------------------------------------------------------- *)

let eq x v = Eq (x, v)

let tr tname guard branches = { tname; guard; branches }

(* Counts down from [n] and resets.  Planted: [spare] never changes
   (M301), [stuck] needs spare=1 (M302), and the spec atom spare=1 is
   constant (M311). *)
let countdown ~n =
  {
    name = Printf.sprintf "countdown-%d" n;
    vars = [ ("c", 0, n); ("spare", 0, 2) ];
    init = [ ("c", n); ("spare", 0) ];
    trans =
      [
        tr "tick" (Not (eq "c" 0)) [ [ ("c", Plus ("c", -1)) ] ];
        tr "reset" (eq "c" 0) [ [ ("c", Const n) ] ];
        tr "stuck" (All [ eq "c" 0; eq "spare" 1 ]) [ [ ("c", Const n) ] ];
      ];
    fair = [ "tick"; "reset" ];
    specs =
      [
        { sname = "recur"; text = "[]<> c=0"; expect = Some true };
        { sname = "never-zero"; text = "[] !(c=0)"; expect = Some false };
        { sname = "spare"; text = Printf.sprintf "[] (spare=1 -> <> c=%d)" n; expect = Some true };
      ];
    planted = [ (M301, None); (M302, None); (M311, Some "spare") ];
  }

(* Two processes around a lock; process 1 counts its laps up to [k].
   With [dead], process 2's entry tests pc2=2 instead of pc2=1, so it
   never enters: M302 (enter2 is dead), M301 (pc2=2 is unreachable) and
   M311 (the atom pc2=2 is constant). *)
let mutex ~k ~dead =
  let proc i enter_guard =
    let pc = Printf.sprintf "pc%d" i in
    [
      tr (Printf.sprintf "try%d" i) (eq pc 0) [ [ (pc, Const 1) ] ];
      tr (Printf.sprintf "enter%d" i) (All [ enter_guard; eq "lock" 0 ])
        [ [ (pc, Const 2); ("lock", Const 1) ] ];
    ]
  in
  {
    name = Printf.sprintf "mutex%s-%d" (if dead then "-dead" else "") k;
    vars = [ ("pc1", 0, 2); ("pc2", 0, 2); ("lock", 0, 1); ("laps", 0, k) ];
    init = [ ("pc1", 0); ("pc2", 0); ("lock", 0); ("laps", 0) ];
    trans =
      proc 1 (eq "pc1" 1)
      @ [
          tr "exit1" (All [ eq "pc1" 2; Not (eq "laps" k) ])
            [ [ ("pc1", Const 0); ("lock", Const 0); ("laps", Plus ("laps", 1)) ] ];
          tr "wrap1" (All [ eq "pc1" 2; eq "laps" k ])
            [ [ ("pc1", Const 0); ("lock", Const 0); ("laps", Const 0) ] ];
        ]
      @ proc 2 (eq "pc2" (if dead then 2 else 1))
      @ [ tr "exit2" (eq "pc2" 2) [ [ ("pc2", Const 0); ("lock", Const 0) ] ] ];
    fair = [ "enter1"; "exit1"; "wrap1"; "enter2"; "exit2" ];
    specs =
      [
        { sname = "mutual-exclusion"; text = "[] !(pc1=2 & pc2=2)"; expect = Some true };
        { sname = "acc1"; text = "[] (pc1=1 -> <> pc1=2)"; expect = None };
        { sname = "acc2"; text = "[] (pc2=1 -> <> pc2=2)"; expect = None };
      ];
    planted = (if dead then [ (M301, None); (M302, None); (M311, None) ] else []);
  }

(* A request/grant handshake with a wait counter up to [n].  With
   [inverted], raise tests req=1 instead of req=0: nothing ever moves,
   the response requirement holds vacuously (M310), the initial state
   is an idle-only sink (M303) and every transition is dead (M302). *)
let request_grant ~n ~inverted =
  {
    name = Printf.sprintf "request-grant%s-%d" (if inverted then "-inverted" else "") n;
    vars = [ ("req", 0, 1); ("gnt", 0, 1); ("t", 0, n) ];
    init = [ ("req", 0); ("gnt", 0); ("t", 0) ];
    trans =
      [
        tr "raise" (eq "req" (if inverted then 1 else 0)) [ [ ("req", Const 1); ("t", Const 0) ] ];
        tr "wait" (All [ eq "req" 1; eq "gnt" 0; Not (eq "t" n) ]) [ [ ("t", Plus ("t", 1)) ] ];
        tr "grant" (All [ eq "req" 1; eq "gnt" 0 ]) [ [ ("gnt", Const 1) ]; [ ("gnt", Const 1); ("t", Const 0) ] ];
        tr "ack" (eq "gnt" 1) [ [ ("req", Const 0); ("gnt", Const 0) ] ];
      ];
    fair = [ "raise"; "grant"; "ack" ];
    specs =
      [
        { sname = "response"; text = "[] (req=1 -> <> gnt=1)"; expect = Some true };
        { sname = "raised"; text = "<> req=1"; expect = Some (not inverted) };
        { sname = "deadline"; text = Printf.sprintf "[] (t=%d -> <> gnt=1)" n; expect = Some true };
      ];
    planted =
      (if inverted then [ (M310, Some "response"); (M303, None); (M302, None) ] else []);
  }

(* ---------------------------------------------------------------- *)
(* The corpus                                                        *)
(* ---------------------------------------------------------------- *)

type entry = {
  model : model;
  text : string;
  system : Fts.System.t;
  formulas : (string * Logic.Formula.t) list;
}

let load model =
  let text = render model in
  let system, _ = Fts.Parse.parse ~name:model.name text in
  let formulas = List.map (fun s -> (s.sname, Logic.Parser.parse s.text)) model.specs in
  { model; text; system; formulas }

let generate ~seed =
  let st = rng ~seed ~salt:4 in
  (* sizes move by at most 2% with the seed: analysis time grows faster
     than the square of the size *)
  let j n = n + Random.State.int st (max 1 (n / 50)) in
  Array.of_list
    (List.map load
       ([ countdown ~n:(j 100); countdown ~n:(j 180); countdown ~n:(j 260); countdown ~n:(j 340) ]
       @ [
           mutex ~k:(j 8) ~dead:true;
           mutex ~k:(j 16) ~dead:false;
           mutex ~k:(j 32) ~dead:true;
           mutex ~k:(j 48) ~dead:false;
         ]
       (* analysis time grows steeply with the wait bound (about 13 ms
          at 20, 34 ms at 26, 27 s at 100), so these sizes do not move
          with the seed *)
       @ [
           request_grant ~n:10 ~inverted:true;
           request_grant ~n:18 ~inverted:false;
           request_grant ~n:24 ~inverted:true;
           request_grant ~n:28 ~inverted:false;
         ]))

(* ---------------------------------------------------------------- *)
(* Oracles                                                           *)
(* ---------------------------------------------------------------- *)

let check_findings e (v : Hierarchy.Lint.verdict) =
  List.iter
    (fun (code, req) ->
      let found =
        List.exists
          (fun (d : Hierarchy.Lint.diagnostic) ->
            d.code = Hierarchy.Lint.Model code && (req = None || d.requirement = req))
          v.diagnostics
      in
      if not found then
        fail ~op:("analyze " ^ e.model.name) ~check:"planted-finding"
          "%s%s is not reported" (Fts.Analyze.code_name code)
          (match req with Some r -> " on " ^ r | None -> ""))
    e.model.planted

(* Replay a counterexample with the generator's own reading of the
   model: it must start in an initial state, follow transitions whose
   guards hold, close its cycle, be weakly fair, and violate the
   requirement. *)
let replay e (s : spec) (t : Fts.Check.trace) =
  let m = e.model in
  let op = Printf.sprintf "holds %s %s" m.name s.sname in
  let bad fmt = fail ~op ~check:"counterexample-replays" fmt in
  let steps = t.prefix @ t.cycle in
  if t.cycle = [] then bad "empty cycle";
  let init = Array.of_list (List.map (fun (x, _, _) -> List.assoc x m.init) m.vars) in
  (match steps with
  | (s0, _) :: _ when s0 = init -> ()
  | _ -> bad "does not start in the initial state");
  let step_ok src (dst, tname) =
    if tname = Fts.System.idle_name then dst = src
    else
      match List.find_opt (fun tr -> tr.tname = tname) m.trans with
      | None -> false
      | Some tr -> List.mem dst (successors m tr src)
  in
  let rec walk = function
    | a :: (b :: _ as rest) ->
        if not (step_ok (fst a) b) then bad "no transition %s into the next state" (snd b);
        walk rest
    | _ -> ()
  in
  walk steps;
  let last = fst (List.nth steps (List.length steps - 1)) in
  if not (step_ok last (List.hd t.cycle)) then bad "the cycle does not close";
  List.iter
    (fun f ->
      let tr = List.find (fun tr -> tr.tname = f) m.trans in
      let taken = List.exists (fun (_, n) -> n = f) t.cycle in
      let disabled = List.exists (fun (st, _) -> not (eval m st tr.guard)) t.cycle in
      if not (taken || disabled) then bad "weakly fair %s is enabled throughout and never taken" f)
    m.fair;
  let f = Logic.Parser.parse s.text in
  let atoms = Logic.Formula.atoms f in
  let alpha = Finitary.Alphabet.of_props atoms in
  let letter st =
    List.fold_left (fun (acc, bit) a -> ((if atom_holds m st a then acc lor bit else acc), bit * 2))
      (0, 1) atoms
    |> fst
  in
  let word l = Array.of_list (List.map (fun (st, _) -> letter st) l) in
  let lasso = Finitary.Word.lasso ~prefix:(word t.prefix) ~cycle:(word t.cycle) in
  if Logic.Semantics.holds alpha f lasso then bad "the trace satisfies the requirement"

let check_holds e (s : spec) (r : Fts.Check.result) =
  let op = Printf.sprintf "holds %s %s" e.model.name s.sname in
  (match (s.expect, r) with
  | Some true, Fts.Check.Fails _ -> fail ~op ~check:"planted-verdict" "expected to hold"
  | Some false, Holds -> fail ~op ~check:"planted-verdict" "expected a counterexample"
  | _ -> ());
  match r with Fails t -> replay e s t | Holds -> ()
