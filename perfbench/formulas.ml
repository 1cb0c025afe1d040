(* The formula-classify corpus and its oracles.

   A corpus is a list of pairs (phi, !phi) drawn from fixed templates
   of spec-shaped formulas over two or three atoms, plus a slice of the
   paper's A/E/R/P operators applied to seeded regexes.  Each template
   slot is used the same number of times whatever the seed, so the
   class mix is fixed and only atoms, polarities and past operators
   vary with it. *)

open Util

type input =
  | Formula of { template : string; text : string; props : string }
  | Regex of { op : string; re : string }

type answer = (Hierarchy.Engine.report, Hierarchy.Engine.error) result

type corpus = {
  inputs : input array;
  automata : Omega.Automaton.t option array;
      (* the translation of each formula input, made while screening *)
  excluded : (string * string * float) list;
      (* (props, formula, predicted exponent) of screened-out candidates *)
}

(* ---------------------------------------------------------------- *)
(* Generation                                                        *)
(* ---------------------------------------------------------------- *)

let lit st atoms =
  let a = pick st atoms in
  if Random.State.bool st then a else "!" ^ a

(* Past formulas at a fixed nesting level, so a template's cost does
   not drift with the seed. *)
let past st atoms level =
  let l () = lit st atoms in
  match level with
  | 0 -> l ()
  | 1 -> (
      match Random.State.int st 6 with
      | 0 -> "Y " ^ l ()
      | 1 -> Printf.sprintf "(%s S %s)" (l ()) (l ())
      | 2 -> "O " ^ l ()
      | 3 -> "H " ^ l ()
      | 4 -> Printf.sprintf "(%s & %s)" (l ()) (l ())
      | _ -> Printf.sprintf "(%s | %s)" (l ()) (l ()))
  | _ -> (
      match Random.State.int st 5 with
      | 0 -> "Y Y " ^ l ()
      | 1 -> Printf.sprintf "((%s | %s) & (%s S %s))" (l ()) (l ()) (l ()) (l ())
      | 2 -> Printf.sprintf "Y (%s S %s)" (l ()) (l ())
      | 3 -> Printf.sprintf "(%s & Y %s)" (l ()) (l ())
      | _ -> Printf.sprintf "O (%s & Y %s)" (l ()) (l ()))

(* The seeded templates: (name, generator over the slot's atoms). *)
let templates : (string * (Random.State.t -> string array -> string)) array =
  let p st a lv = past st a lv in
  [|
    ("safety", fun st a -> Printf.sprintf "[] %s" (p st a 1));
    ("safety-step", fun st a -> Printf.sprintf "[] (%s -> Y %s)" (p st a 0) (p st a 0));
    ("safety-past", fun st a -> Printf.sprintf "[] (%s -> %s)" (p st a 0) (p st a 2));
    ("guarantee", fun st a -> Printf.sprintf "<> %s" (p st a 1));
    ("guarantee-past", fun st a -> Printf.sprintf "<> (%s & %s)" (p st a 0) (p st a 2));
    ("obligation", fun st a -> Printf.sprintf "[] %s | <> %s" (p st a 1) (p st a 0));
    ("obligation-and", fun st a -> Printf.sprintf "[] %s & <> %s" (p st a 0) (p st a 1));
    ("unless", fun st a -> Printf.sprintf "%s W %s" (p st a 0) (p st a 0));
    ("recurrence", fun st a -> Printf.sprintf "[]<> %s" (p st a 1));
    ("response", fun st a -> Printf.sprintf "[] (%s -> <> %s)" (p st a 0) (p st a 1));
    ("response-past", fun st a -> Printf.sprintf "[] (%s -> <> %s)" (p st a 2) (p st a 0));
    ("persistence", fun st a -> Printf.sprintf "<>[] %s" (p st a 1));
    ("persistence-past", fun st a -> Printf.sprintf "<>[] %s" (p st a 2));
    ("reactivity", fun st a -> Printf.sprintf "[]<> %s | <>[] %s" (p st a 1) (p st a 0));
    ("fairness", fun st a -> Printf.sprintf "[]<> %s -> []<> %s" (p st a 0) (p st a 1));
    ("reactivity-past", fun st a -> Printf.sprintf "([]<> %s | <>[] %s)" (p st a 1) (p st a 1));
    ( "reactivity-2",
      fun st a ->
        Printf.sprintf "([]<> %s | <>[] %s) & ([]<> %s | <>[] %s)" (p st a 0)
          (p st a 0) (p st a 0) (p st a 0) );
    ( "mixed",
      fun st a ->
        Printf.sprintf "[] %s & ([]<> %s | <>[] %s)" (p st a 0) (p st a 0) (p st a 0) );
  |]

(* The heavy slice: fixed shapes over p, q, r, the same for every seed.
   Renaming atoms permutes the letters and moves the cost of these
   shapes by up to a factor of two, so their atoms are permuted by slot,
   not by seed: the tail of the latency distribution does not move with
   the seed.  "rank" is the F3 example's shape (rank search, degraded),
   "f2" the F2 example's shape (degraded although recurrence is
   decided), and "mixed" a safety conjunct over a simple reactivity
   whose negation spends its time in uniform liveness and the rank
   search. *)
let heavy =
  let mixed = ("heavy-mixed", Printf.sprintf "[] %s & ([]<> Y %s | <>[] !%s)") in
  let f2 =
    ( "heavy-f2",
      fun a b c -> Printf.sprintf "[] (((%s | %s) & (%s S %s)) -> <> Y Y %s)" a b c b a )
  in
  let rank = ("heavy-rank", fun a b _ -> Printf.sprintf "([]<> Y Y %s | <>[] %s)" a b) in
  [| mixed; f2; f2; rank; f2; mixed; f2 |]

let permutations =
  [|
    [| "p"; "q"; "r" |]; [| "q"; "r"; "p" |]; [| "r"; "p"; "q" |];
    [| "p"; "r"; "q" |]; [| "q"; "p"; "r" |]; [| "r"; "q"; "p" |];
  |]

let regex st =
  let rec go d =
    if d = 0 then pick st [| "a"; "b"; "." |]
    else
      match Random.State.int st 4 with
      | 0 -> Printf.sprintf "(%s %s)" (go (d - 1)) (go (d - 1))
      | 1 -> Printf.sprintf "(%s + %s)" (go (d - 1)) (go (d - 1))
      | 2 -> Printf.sprintf "(%s)*" (go (d - 1))
      | _ -> Printf.sprintf "(%s %s)" (go (d - 1)) (go 0)
  in
  go 3

let regex_ops = [| "A"; "E"; "R"; "P" |]

let regex_chars = "ab"

let alphabet_of props = Finitary.Alphabet.of_props (String.split_on_char ',' props)

(* F1 screen: [Lang.is_uniform_liveness] conjoins one copy of the
   acceptance condition per start state and expands the conjunction
   into DNF, so its size grows like |dnf acc| ^ starts.  The exponent,
   in bits, predicts the memory blow-up. *)
let uniform_liveness_bits (a : Omega.Automaton.t) =
  let reach = Omega.Automaton.reachable a in
  let starts = Hashtbl.create 16 in
  Array.iteri
    (fun q r -> if r then Array.iter (fun q' -> Hashtbl.replace starts q' ()) a.delta.(q))
    reach;
  let d = List.length (Omega.Acceptance.dnf a.acc) in
  float_of_int (Hashtbl.length starts) *. Float.log2 (float_of_int (max 1 d))

(* Candidates predicted above this many bits are kept out of the seeded
   corpus (they hit fault F1 or come close to it); the fixed F1 inputs
   below stand for them. *)
let max_bits = 20.

(* Inputs that hit F1 whatever the seed: each round attempts them in a
   separate process under a memory limit, and each one fails. *)
let f1_inputs = [ ("p,q,r", "([]<> Y Y p | <>[] Y !r)") ]

(* Classify an F1 input in a child [hpt] process under an address-space
   limit (about 390 MiB, above the 256 MiB the runtime reserves for its
   minor heaps), so the allocation blow-up kills the child, not the
   caller.  True when the child answered. *)
let classify_in_child (props, text) =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let script = "ulimit -v 400000; exec \"$0\" classify --props \"$1\" \"$2\"" in
  let pid =
    Unix.create_process "/bin/sh" [| "sh"; "-c"; script; hpt_binary; props; text |] devnull devnull devnull
  in
  Unix.close devnull;
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let screen props text =
  let alpha = alphabet_of props in
  match Omega.Of_formula.translate alpha (Logic.Parser.parse text) with
  | None -> `Outside
  | Some a ->
      let bits = uniform_liveness_bits a in
      if bits > max_bits then `Excluded bits else `Kept a

let generate ~seed ~pairs =
  let st = rng ~seed ~salt:1 in
  let inputs = ref [] and automata = ref [] and excluded = ref [] in
  let add i a =
    inputs := i :: !inputs;
    automata := a :: !automata
  in
  let n_templates = Array.length templates in
  for k = 0 to pairs - 1 do
    (* every eighth pair is an operator on a regex, every fortieth is
       heavy; the rest cycle through the templates *)
    if k mod 40 = 0 then begin
      let template, gen = heavy.((k / 40) mod Array.length heavy) in
      let perm = permutations.((k / 40) mod 6) in
      let text = gen perm.(0) perm.(1) perm.(2) in
      let neg = "!(" ^ text ^ ")" in
      match (screen "p,q,r" text, screen "p,q,r" neg) with
      | `Kept a, `Kept na ->
          add (Formula { template; text; props = "p,q,r" }) (Some a);
          add (Formula { template = "!" ^ template; text = neg; props = "p,q,r" }) (Some na)
      | _ -> invalid_arg ("heavy template outside the screen: " ^ text)
    end
    else if k mod 8 = 7 then begin
      let re = regex st in
      add (Regex { op = regex_ops.((k / 8) mod 4); re }) None
    end
    else begin
      let template, gen = templates.(k mod n_templates) in
      let atoms = if k mod 3 = 0 then [| "p"; "q" |] else [| "p"; "q"; "r" |] in
      let props = String.concat "," (Array.to_list atoms) in
      let rec draw () =
        let text = gen st atoms in
        let neg = "!(" ^ text ^ ")" in
        match (screen props text, screen props neg) with
        | `Kept a, `Kept na -> (text, neg, a, na)
        | s1, s2 ->
            List.iter
              (function
                | t, `Excluded b -> excluded := (props, t, b) :: !excluded
                | _ -> ())
              [ (text, s1); (neg, s2) ];
            draw ()
      in
      let text, neg, a, na = draw () in
      add (Formula { template; text; props }) (Some a);
      add (Formula { template = "!" ^ template; text = neg; props }) (Some na)
    end
  done;
  {
    inputs = Array.of_list (List.rev !inputs);
    automata = Array.of_list (List.rev !automata);
    excluded = List.rev !excluded;
  }

let describe = function
  | Formula { text; props; _ } -> Printf.sprintf "classify --props %s %S" props text
  | Regex { op; re } -> Printf.sprintf "build %s %S --chars %s" op re regex_chars

(* The operation under test: one front-door call, no pool, unlimited
   budget. *)
let run_op = function
  | Formula { text; props; _ } -> Hierarchy.Engine.classify ~props text
  | Regex { op; re } -> Hierarchy.Engine.classify_regex ~chars:regex_chars ~op re

(* ---------------------------------------------------------------- *)
(* Oracles                                                           *)
(* ---------------------------------------------------------------- *)

let row_get row k = try List.assoc k row with Not_found -> None

(* Figure 1's inclusions between the six basic classes. *)
let upward =
  Kappa.
    [
      (Safety, Obligation 1);
      (Guarantee, Obligation 1);
      (Obligation 1, Recurrence);
      (Obligation 1, Persistence);
      (Recurrence, Reactivity 1);
      (Persistence, Reactivity 1);
    ]

let check_row ~op (r : Hierarchy.Engine.report) =
  List.iter
    (fun (lo, hi) ->
      match (row_get r.memberships lo, row_get r.memberships hi) with
      | Some true, Some false ->
          fail ~op ~check:"row-upward-closed" "member of %s but not of %s"
            (Kappa.name lo) (Kappa.name hi)
      | _ -> ())
    upward

(* [k] lies at or below [bound], allowing the clopen exception: a
   property that is both safety and guarantee is reported as safety. *)
let within (r : Hierarchy.Engine.report) k bound =
  Kappa.leq k bound
  || (k = Kappa.Safety && row_get r.memberships Kappa.Guarantee = Some true
     && Kappa.leq Kappa.Guarantee bound)

let check_bounds ~op text (r : Hierarchy.Engine.report) =
  let f = Logic.Parser.parse text in
  let shape = Logic.Shape.infer f in
  let bounds =
    [ ("shape", Logic.Shape.upper shape); ("canonical", Logic.Rewrite.classify f) ]
  in
  let lowest =
    match r.verdict with
    | Hierarchy.Engine.Exact k -> Some k
    | Interval { lower; _ } -> lower
  in
  match lowest with
  | None -> ()
  | Some k ->
      List.iter
        (function
          | name, Some b when not (within r k b) ->
              fail ~op ~check:("class-within-" ^ name ^ "-bound") "%s is above %s"
                (Kappa.name k) (Kappa.name b)
          | _ -> ())
        bounds

(* Duality: the row of !phi is the row of phi read through
   safety<->guarantee and recurrence<->persistence, and each class is
   at or below the complement bound ({!Kappa.not_}) of the other's.
   The simple obligation and simple reactivity columns have no such
   law: the complement of a simple obligation is an obligation(2). *)
let self_dual = Kappa.[ Safety; Guarantee; Recurrence; Persistence ]

let check_dual ~op (r : Hierarchy.Engine.report) (nr : Hierarchy.Engine.report) =
  List.iter
    (fun k ->
      match (row_get r.memberships k, row_get nr.memberships (Kappa.not_ k)) with
      | Some b, Some nb when b <> nb ->
          fail ~op ~check:"negation-dual" "phi in %s = %b but !phi in %s = %b"
            (Kappa.name k) b (Kappa.name (Kappa.not_ k)) nb
      | _ -> ())
    self_dual;
  match (r.verdict, nr.verdict) with
  | Exact k, Exact nk ->
      if not (within nr nk (Kappa.not_ k) && within r k (Kappa.not_ nk)) then
        fail ~op ~check:"negation-dual" "phi is %s but !phi is %s" (Kappa.name k)
          (Kappa.name nk)
  | _ -> ()

let check_lassos ~op st alpha f (a : Omega.Automaton.t) =
  for _ = 1 to 6 do
    let w = random_lasso st alpha ~max_prefix:4 ~max_cycle:4 in
    let by_automaton = Omega.Automaton.accepts a w in
    let by_semantics = Logic.Semantics.holds alpha f w in
    if by_automaton <> by_semantics then
      fail ~op ~check:"automaton-agrees-with-semantics"
        "on %s the automaton says %b, the semantics %b"
        (Format.asprintf "%a" (Finitary.Word.pp_lasso alpha) w)
        by_automaton by_semantics
  done

(* A(Phi)/E(Phi)/R(Phi)/P(Phi) on a lasso, straight from the
   definitions: follow the DFA along the word until (position in the
   cycle, DFA state) repeats, then read the transient and the loop. *)
let regex_holds op (d : Finitary.Dfa.t) (w : Finitary.Word.lasso) =
  let pre = w.Finitary.Word.prefix and cyc = w.cycle in
  let lc = Array.length cyc in
  let q = ref d.start in
  let transient =
    Array.to_list
      (Array.map
         (fun l ->
           q := Finitary.Dfa.step d !q l;
           d.accept.(!q))
         pre)
  in
  (* after.(j - 1): is the prefix ending j letters into the cycle part
     accepted; seen maps (j mod |cycle|, state) to the first such j *)
  let seen = Hashtbl.create 64 and after = ref [] in
  let rec walk j =
    match Hashtbl.find_opt seen (j mod lc, !q) with
    | Some i -> i
    | None ->
        Hashtbl.add seen (j mod lc, !q) j;
        q := Finitary.Dfa.step d !q cyc.(j mod lc);
        after := d.accept.(!q) :: !after;
        walk (j + 1)
  in
  let i = walk 0 in
  let after = List.rev !after in
  let loop = List.filteri (fun j _ -> j >= i) after in
  let everywhere = transient @ after in
  match op with
  | "A" -> List.for_all Fun.id everywhere
  | "E" -> List.exists Fun.id everywhere
  | "R" -> List.exists Fun.id loop
  | _ -> List.for_all Fun.id loop

let build_regex op re =
  let d = Finitary.Regex.compile (Finitary.Alphabet.of_chars regex_chars) re in
  Omega.Build.of_op
    (match op with "A" -> Omega.Build.A | "E" -> E | "R" -> R | _ -> P)
    d

let op_class = function
  | "A" -> Kappa.Safety
  | "E" -> Kappa.Guarantee
  | "R" -> Kappa.Recurrence
  | _ -> Kappa.Persistence

let check_regex ~op st opname re (r : Hierarchy.Engine.report) =
  let alpha = Finitary.Alphabet.of_chars regex_chars in
  if row_get r.memberships (op_class opname) = Some false then
    fail ~op ~check:"class-within-operator-bound" "%s(Phi) is not in %s" opname
      (Kappa.name (op_class opname));
  let d = Finitary.Regex.compile alpha re in
  let a = build_regex opname re in
  for _ = 1 to 6 do
    let w = random_lasso st alpha ~max_prefix:4 ~max_cycle:4 in
    if Omega.Automaton.accepts a w <> regex_holds opname d w then
      fail ~op ~check:"operator-agrees-with-definition" "on %s"
        (Format.asprintf "%a" (Finitary.Word.pp_lasso alpha) w)
  done

(* Check one answer per input.  Inputs come in (phi, !phi) pairs; the
   regex inputs stand alone. *)
let check ~seed corpus (answers : answer array) =
  let st = rng ~seed ~salt:2 in
  let n = Array.length corpus.inputs in
  let report i =
    match answers.(i) with
    | Ok r -> r
    | Error e ->
        fail ~op:(describe corpus.inputs.(i)) ~check:"answered" "%s"
          (Format.asprintf "%a" Hierarchy.Engine.pp_error e)
  in
  let i = ref 0 in
  while !i < n do
    let op = describe corpus.inputs.(!i) in
    (match corpus.inputs.(!i) with
    | Regex { op = opname; re } ->
        let r = report !i in
        check_row ~op r;
        check_regex ~op st opname re r;
        incr i
    | Formula { props; _ } ->
        let r = report !i and nr = report (!i + 1) in
        let alpha = alphabet_of props in
        List.iter
          (fun j ->
            let opj = describe corpus.inputs.(j) in
            let rj = report j in
            check_row ~op:opj rj;
            match (corpus.inputs.(j), corpus.automata.(j)) with
            | Formula { text; _ }, Some a ->
                check_bounds ~op:opj text rj;
                check_lassos ~op:opj st alpha (Logic.Parser.parse text) a
            | _ -> ())
          [ !i; !i + 1 ];
        check_dual ~op r nr;
        i := !i + 2)
  done
