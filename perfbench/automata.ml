(* The automata-scale corpus: seeded deterministic automata of
   thousands to tens of thousands of states whose classes, inclusion
   relations and safety closures are planted by construction, with the
   oracles that check the library's answers against the plant. *)

open Util
module A = Omega.Automaton
module Acc = Omega.Acceptance

let ab = Finitary.Alphabet.of_chars "ab"

let abcd = Finitary.Alphabet.of_chars "abcd"

(* An automaton kept as its parts, so every operation can build a fresh
   value: a fresh value has a new uid and an empty successor memo, so
   no round is served from a cache the previous round filled. *)
type spec = {
  name : string;
  alpha : Finitary.Alphabet.t;
  n : int;
  delta : int array array;
  acc : Acc.t;
}

let build s = A.make ~alpha:s.alpha ~n:s.n ~start:0 ~delta:s.delta ~acc:s.acc

type expect = Exactly of Kappa.t | Some_obligation

type classify_case = { auto : spec; expect : expect }

type inclusion_case = {
  left : spec;
  right : spec;
  included : bool;
  witness : Finitary.Word.lasso option;
      (* planted: accepted by [left], rejected by [right] *)
}

type closure_case = {
  closed : spec;
  inside : Finitary.Word.lasso;  (* stays out of the trap: accepted by the closure *)
  trapped : Finitary.Word.lasso;  (* enters the trap: rejected by the closure *)
}

type corpus = {
  classify : classify_case array;
  inclusion : inclusion_case array;
  closure : closure_case array;
}

let set l = Omega.Iset.of_list l

let range lo hi = List.init (hi - lo) (fun i -> lo + i)

(* Sizes move by at most 2% with the seed, so the work per round does
   not. *)
let jitter st n = n + Random.State.int st (max 1 (n / 50))

(* A ring on 'a' over [lo, hi) whose 'b' edges jump inside the ring,
   except at the states [exits], which go to [exit]. *)
let ring st delta ~lo ~hi ~exits ~exit =
  for q = lo to hi - 1 do
    let next = if q + 1 = hi then lo else q + 1 in
    let b = if List.mem q exits then exit else lo + Random.State.int st (hi - lo) in
    delta.(q) <- [| next; b |]
  done

(* One strongly connected ring with a 'b' self-loop at state 1: Inf {0}
   is recurrence and not persistence; Fin {0} the reverse. *)
let single_scc st ~n ~recurrence =
  let delta = Array.make n [||] in
  ring st delta ~lo:0 ~hi:n ~exits:[] ~exit:0;
  delta.(1) <- [| 2; 1 |];
  let acc = if recurrence then Acc.Inf (set [ 0 ]) else Acc.Fin (set [ 0 ]) in
  {
    auto = { name = Printf.sprintf "scc-%d" n; alpha = ab; n; delta; acc };
    expect = Exactly (if recurrence then Kappa.Recurrence else Kappa.Persistence);
  }

(* The sweep shape: a ring on 'a' with a 'b' self-loop at every state,
   Inf {0}: recurrence, with a rejecting self-loop inside every cycle
   through 0. *)
let sweep_case ~n =
  {
    auto =
      {
        name = Printf.sprintf "sweep-%d" n;
        alpha = ab;
        n;
        delta = Array.init n (fun q -> [| (q + 1) mod n; q |]);
        acc = Acc.Inf (set [ 0 ]);
      };
    expect = Exactly Kappa.Recurrence;
  }

let is_sweep (c : classify_case) = String.starts_with ~prefix:"sweep-" c.auto.name

(* A ring whose 'b' edges at [bad] states fall into an absorbing sink:
   Fin {sink} is safety, Inf {sink} guarantee. *)
let sink_ring st ~n ~bad =
  let delta = Array.make (n + 1) [||] in
  ring st delta ~lo:0 ~hi:n ~exits:bad ~exit:n;
  delta.(n) <- [| n; n |];
  delta

let sink_case st ~n ~safety =
  let bad = [ 1 + Random.State.int st (n - 1) ] in
  let delta = sink_ring st ~n ~bad in
  let acc = if safety then Acc.Fin (set [ n ]) else Acc.Inf (set [ n ]) in
  {
    auto = { name = Printf.sprintf "sink-%d" n; alpha = ab; n = n + 1; delta; acc };
    expect = Exactly (if safety then Kappa.Safety else Kappa.Guarantee);
  }

(* Two rings in a row, then a sink: accepting, rejecting, accepting. *)
let chain_case st ~n =
  let n0 = n / 2 in
  let n1 = n - n0 in
  let sink = n in
  let delta = Array.make (n + 1) [||] in
  ring st delta ~lo:0 ~hi:n0 ~exits:[ Random.State.int st n0 ] ~exit:n0;
  ring st delta ~lo:n0 ~hi:n ~exits:[ n0 + Random.State.int st n1 ] ~exit:sink;
  delta.(sink) <- [| sink; sink |];
  {
    auto =
      {
        name = Printf.sprintf "chain-%d" n;
        alpha = ab;
        n = n + 1;
        delta;
        acc = Acc.Fin (set (range n0 n));
      };
    expect = Some_obligation;
  }

let a_pow k = Array.make k 0

(* Safety pairs: [strict] adds one more bad edge, so L(strict) is a
   proper subset of L(loose); the witness reaches the extra bad state
   on 'a's, takes 'b' and rings on 'a' forever. *)
let safety_pair st ~n =
  let bad = 1 + Random.State.int st (n / 2) in
  let extra = bad + 1 + Random.State.int st (n / 2 - 1) in
  let loose = sink_ring st ~n ~bad:[ bad ] in
  let strict = Array.map Array.copy loose in
  strict.(extra) <- [| strict.(extra).(0); n |];
  let mk name delta =
    { name = Printf.sprintf "%s-%d" name n; alpha = ab; n = n + 1; delta; acc = Acc.Fin (set [ n ]) }
  in
  let loose = mk "loose" loose and strict = mk "strict" strict in
  let witness = Finitary.Word.lasso ~prefix:(Array.append (a_pow extra) [| 1 |]) ~cycle:[| 0 |] in
  [
    { left = strict; right = loose; included = true; witness = None };
    { left = loose; right = strict; included = false; witness = Some witness };
  ]

(* Lazy products: [sum] adds 1, 0, 3, 5 modulo [na] on a, b, c, d and
   accepts when it hits 0 infinitely often; [count] counts b's modulo
   [nb].  Every pair of the two is reachable, so an inclusion query
   explores na * nb pairs.  Neither language contains the other; the
   universal condition Inf {0} | Fin {0} on [count] contains both. *)
let product_cases ~na ~nb =
  let na = if na mod 3 = 0 then na + 1 else na in
  let sum =
    {
      name = Printf.sprintf "sum-%d" na;
      alpha = abcd;
      n = na;
      delta = Array.init na (fun q -> [| (q + 1) mod na; q; (q + 3) mod na; (q + 5) mod na |]);
      acc = Acc.Inf (set [ 0 ]);
    }
  in
  let count acc =
    {
      name = Printf.sprintf "count-%d" nb;
      alpha = abcd;
      n = nb;
      delta = Array.init nb (fun q -> [| q; (q + 1) mod nb; q; q |]);
      acc;
    }
  in
  let lasso prefix cycle = Finitary.Word.lasso ~prefix ~cycle in
  [
    (* b then a forever: sum hits 0 every na steps, count stays at 1 *)
    {
      left = sum;
      right = count (Acc.Inf (set [ 0 ]));
      included = false;
      witness = Some (lasso [| 1 |] [| 0 |]);
    };
    (* c then b forever: sum stays at 3, count cycles through 0 *)
    {
      left = count (Acc.Inf (set [ 0 ]));
      right = sum;
      included = false;
      witness = Some (lasso [| 2 |] [| 1 |]);
    };
    {
      left = sum;
      right = count (Acc.Or [ Acc.Inf (set [ 0 ]); Acc.Fin (set [ 0 ]) ]);
      included = true;
      witness = None;
    };
  ]

(* Safety-closure inputs: a ring whose 'a' steps by one and 'b' by a
   seeded multiple of [conj], with a DNF of [conj] conjuncts
   Fin(slice r) & Inf(slice r+1), where slice r holds the states equal
   to r modulo [conj].  'b' orbits stay inside one slice, so every
   conjunct has an accepting cycle.  A dead trap ring, entered by 'b'
   from the middle state, satisfies no conjunct: the closure is
   Fin(trap). *)
let closure_case st ~n ~conj =
  let n = n - (n mod conj) in
  let trap = 64 in
  let stride = conj * (1 + Random.State.int st 7) in
  let delta =
    Array.init (n + trap) (fun q ->
        if q < n then [| (q + 1) mod n; (if q = n / 2 then n else (q + stride) mod n) |]
        else [| n + ((q - n + 1) mod trap); q |])
  in
  let slice r = set (List.filter (fun q -> q mod conj = r) (range 0 n)) in
  let acc =
    Acc.Or
      (List.init conj (fun r -> Acc.And [ Acc.Fin (slice r); Acc.Inf (slice ((r + 1) mod conj)) ]))
  in
  {
    closed = { name = Printf.sprintf "closure-%d" n; alpha = ab; n = n + trap; delta; acc };
    inside = Finitary.Word.lasso ~prefix:[||] ~cycle:[| 0 |];
    trapped = Finitary.Word.lasso ~prefix:(Array.append (a_pow (n / 2)) [| 1 |]) ~cycle:[| 0 |];
  }

let generate ~seed =
  let st = rng ~seed ~salt:3 in
  let classify =
    List.concat_map
      (fun base ->
        [
          single_scc st ~n:(jitter st base) ~recurrence:true;
          single_scc st ~n:(jitter st base) ~recurrence:false;
          sink_case st ~n:(jitter st base) ~safety:true;
          sink_case st ~n:(jitter st base) ~safety:false;
          chain_case st ~n:(jitter st base);
        ])
      [ 1_000; 2_000; 4_000; 8_000 ]
    @ [ sweep_case ~n:(jitter st 3_000); sweep_case ~n:(jitter st 6_000) ]
  in
  let inclusion =
    List.concat_map (fun base -> safety_pair st ~n:(jitter st base)) [ 4_000; 8_000; 12_000; 16_000 ]
    @ product_cases ~na:(jitter st 300) ~nb:(jitter st 299)
    @ product_cases ~na:(jitter st 500) ~nb:(jitter st 499)
  in
  let closure =
    List.map
      (fun (base, conj) -> closure_case st ~n:(jitter st base) ~conj)
      [ (4_000, 2); (8_000, 4); (8_000, 8); (16_000, 4); (16_000, 8); (24_000, 8) ]
  in
  {
    classify = Array.of_list classify;
    inclusion = Array.of_list inclusion;
    closure = Array.of_list closure;
  }

(* ---------------------------------------------------------------- *)
(* Operations and oracles                                            *)
(* ---------------------------------------------------------------- *)

type answer = Class of Kappa.t | Included of bool | Closure of A.t

let classify_op c = Class (Omega.Classify.classify (build c.auto))

let inclusion_op c = Included (Omega.Lang.included (build c.left) (build c.right))

let closure_op c = Closure (Omega.Lang.safety_closure (build c.closed))

let check_classify c = function
  | Class k -> (
      let op = "classify " ^ c.auto.name in
      match c.expect with
      | Exactly e when not (Kappa.equal e k) ->
          fail ~op ~check:"planted-class" "expected %s, got %s" (Kappa.name e) (Kappa.name k)
      | Some_obligation when (match k with Kappa.Obligation _ -> false | _ -> true) ->
          fail ~op ~check:"planted-class" "expected an obligation, got %s" (Kappa.name k)
      | _ -> ())
  | _ -> invalid_arg "check_classify"

let check_inclusion c = function
  | Included b ->
      let op = Printf.sprintf "included %s %s" c.left.name c.right.name in
      if b <> c.included then
        fail ~op ~check:"planted-inclusion" "expected %b, got %b" c.included b;
      if not b then begin
        match c.witness with
        | None -> fail ~op ~check:"counterexample-lasso" "no planted witness"
        | Some w ->
            if not (A.accepts (build c.left) w) then
              fail ~op ~check:"counterexample-lasso" "the left automaton rejects the witness";
            if A.accepts (build c.right) w then
              fail ~op ~check:"counterexample-lasso" "the right automaton accepts the witness"
      end
  | _ -> invalid_arg "check_inclusion"

let check_closure c = function
  | Closure cl ->
      let op = "safety_closure " ^ c.closed.name in
      let a = build c.closed in
      if not (Omega.Lang.included a cl) then
        fail ~op ~check:"closure-contains-automaton" "L(a) is not inside its closure";
      if not (Omega.Classify.is_safety cl) then
        fail ~op ~check:"closure-is-safety" "the closure does not classify as safety";
      if not (A.accepts cl c.inside) then
        fail ~op ~check:"closure-keeps-live-words" "a word that never enters the trap is rejected";
      if A.accepts cl c.trapped then
        fail ~op ~check:"closure-drops-dead-words" "a word caught in the trap is accepted"
  | _ -> invalid_arg "check_closure"

(* The operations of one round, each with its oracle. *)
let operations corpus =
  Array.to_list
    (Array.map (fun c -> (c.auto.name, (fun () -> classify_op c), check_classify c)) corpus.classify)
  @ Array.to_list
      (Array.map
         (fun c ->
           (c.left.name ^ "<=" ^ c.right.name, (fun () -> inclusion_op c), check_inclusion c))
         corpus.inclusion)
  @ Array.to_list
      (Array.map (fun c -> (c.closed.name, (fun () -> closure_op c), check_closure c)) corpus.closure)

let same_answer x y =
  match (x, y) with
  | Closure a, Closure b -> a.A.n = b.A.n && a.delta = b.delta && a.acc = b.acc
  | _ -> x = y
