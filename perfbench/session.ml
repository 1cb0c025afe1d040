(* The serve-session workload: the frames one client sends to an
   `hpt serve` daemon, the client that keeps two requests outstanding,
   and the oracle that recomputes every reply in-process. *)

open Util
module Json = Serve.Json
module Protocol = Serve.Protocol

(* The paper's worked formulas, over p and q. *)
let paper =
  [|
    "[] p";
    "<> p";
    "[] p | <> q";
    "[]<> p";
    "<>[] p";
    "[]<> p | <>[] q";
    "[] (p -> <> q)";
    "p W q";
    "[] (q -> O p)";
    "[]<> p -> []<> q";
    "[] (p -> Y q)";
    "<> (q & Y p)";
  |]

let equivalences =
  [|
    ("[] p", "!<> !p");
    ("p W q", "[] p | (p U q)");
    ("[]<> p", "[]<> p & true");
    ("[] (p -> <> q)", "[]<> q | <>[] !p");
    ("<>[] p", "[]<> p");
  |]

type item =
  | Hit of int  (* a paper formula, repeated: answered from the cache *)
  | Fresh of int  (* the same formula over fresh atom names *)
  | Lint of { fresh : bool; first : int; second : int }
  | Equiv of { fresh : bool; pair : int }
  | Malformed of int

(* One round's frame mix, per thousand frames: 550 hits, 250 fresh
   variants, 80 lint, 70 equiv and 50 malformed frames, shuffled. *)
let generate ~seed =
  let st = rng ~seed ~salt:5 in
  let n = Array.length paper in
  let mix =
    List.init 550 (fun _ -> Hit (Random.State.int st n))
    @ List.init 250 (fun _ -> Fresh (Random.State.int st n))
    @ List.init 80 (fun i ->
          Lint { fresh = i mod 2 = 0; first = Random.State.int st n; second = Random.State.int st n })
    @ List.init 70 (fun i ->
          Equiv { fresh = i mod 2 = 0; pair = Random.State.int st (Array.length equivalences) })
    @ List.init 50 (fun i -> Malformed (i mod 5))
  in
  shuffle st (Array.of_list mix)

(* Rename p and q to atoms no earlier frame used. *)
let rename tag f =
  let p = "p" ^ tag and q = "q" ^ tag in
  let b = Buffer.create (String.length f + 16) in
  String.iteri
    (fun i c ->
      let ident_at j = j >= 0 && j < String.length f && (match f.[j] with 'a' .. 'z' | '_' | '0' .. '9' -> true | _ -> false) in
      if (c = 'p' || c = 'q') && (not (ident_at (i - 1))) && not (ident_at (i + 1)) then
        Buffer.add_string b (if c = 'p' then p else q)
      else Buffer.add_char b c)
    f;
  (Buffer.contents b, p ^ "," ^ q)

let frame_id ~round i = (round * 100_000) + i

(* The frame for position [i] of round [round]. *)
let frame ~round i item =
  let id = frame_id ~round i in
  let tag = Printf.sprintf "_%d_%d" round i in
  let obj fields = Json.to_string (Json.Obj (("id", Json.Int id) :: fields)) in
  let s x = Json.String x in
  match item with
  | Hit k -> obj [ ("op", s "classify"); ("formula", s paper.(k)); ("props", s "p,q") ]
  | Fresh k ->
      let f, props = rename tag paper.(k) in
      obj [ ("op", s "classify"); ("formula", s f); ("props", s props) ]
  | Lint { fresh; first; second } ->
      let name j k = Json.Obj [ ("name", s (Printf.sprintf "r%d" j)); ("formula", s k) ] in
      let f k = if fresh then fst (rename tag paper.(k)) else paper.(k) in
      obj [ ("op", s "lint"); ("specs", Json.List [ name 1 (f first); name 2 (f second) ]) ]
  | Equiv { fresh; pair } ->
      let a, b = equivalences.(pair) in
      let a, props = if fresh then rename tag a else (a, "p,q") in
      let b = if fresh then fst (rename tag b) else b in
      obj [ ("op", s "equiv"); ("f1", s a); ("f2", s b); ("props", s props) ]
  | Malformed 0 -> Printf.sprintf "{\"id\": %d, \"op\": \"classify\", \"formula\": " id
  | Malformed 1 -> obj [ ("op", s "classify") ]
  | Malformed 2 -> obj [ ("op", s "frobnicate") ]
  | Malformed 3 -> obj [ ("op", s "classify"); ("formula", s "[] (p ->") ]
  | Malformed _ -> obj [ ("formula", s "[] p") ]

let is_malformed = function Malformed _ -> true | _ -> false

(* ---------------------------------------------------------------- *)
(* The daemon and the client                                         *)
(* ---------------------------------------------------------------- *)

type daemon = { pid : int; to_d : out_channel; of_d : in_channel }

let start () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process hpt_binary [| hpt_binary; "serve"; "--jobs"; "1" |] in_r out_w devnull
  in
  List.iter Unix.close [ in_r; out_w; devnull ];
  let d = { pid; to_d = Unix.out_channel_of_descr in_w; of_d = Unix.in_channel_of_descr out_r } in
  (* ready at its first reply *)
  output_string d.to_d "{\"id\": \"ready\", \"op\": \"ping\"}\n";
  flush d.to_d;
  ignore (input_line d.of_d);
  d

let request d line =
  output_string d.to_d line;
  output_char d.to_d '\n';
  flush d.to_d;
  input_line d.of_d

let stop d =
  (try
     output_string d.to_d "{\"id\": \"bye\", \"op\": \"shutdown\"}\n";
     flush d.to_d
   with Sys_error _ -> ());
  (try close_out d.to_d with Sys_error _ -> ());
  (try close_in d.of_d with Sys_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let reply_id line =
  match Json.of_string line with
  | Ok j -> ( match Json.member "id" j with Some (Json.Int i) -> Some i | _ -> None)
  | Error _ -> None

(* Send [frames] with two outstanding at a time.  Returns each frame's
   reply and latency, in frame order.  Replies carry the frame's id;
   a frame too malformed to carry one is answered with a null id, and
   such replies are matched to those frames in sending order. *)
let exchange d (frames : (int * string) array) =
  let n = Array.length frames in
  let replies = Array.make n "" and latency = Array.make n 0. in
  let sent_at = Hashtbl.create 4 and anonymous = Queue.create () in
  let next = ref 0 in
  let send () =
    if !next < n then begin
      let id, line = frames.(!next) in
      (match Json.of_string line with
      | Ok _ -> Hashtbl.replace sent_at id (!next, now ())
      | Error _ -> Queue.add (!next, now ()) anonymous);
      output_string d.to_d line;
      output_char d.to_d '\n';
      flush d.to_d;
      incr next
    end
  in
  send ();
  send ();
  for _ = 1 to n do
    let line = input_line d.of_d in
    let t = now () in
    let i, t0 =
      match reply_id line with
      | Some id when Hashtbl.mem sent_at id ->
          let v = Hashtbl.find sent_at id in
          Hashtbl.remove sent_at id;
          v
      | _ -> Queue.pop anonymous
    in
    replies.(i) <- line;
    latency.(i) <- t -. t0;
    send ()
  done;
  (replies, latency)

let stats d =
  match Json.of_string (request d "{\"id\": \"stats\", \"op\": \"stats\"}") with
  | Ok j -> (
      let counter name =
        Option.bind (Json.member "counters" j) (Json.member name)
        |> Fun.flip Option.bind Json.to_int_opt
      in
      match (counter "cache_hits", counter "cache_misses") with
      | Some h, Some m -> (h, m)
      | _ -> invalid_arg "stats reply without cache counters")
  | Error e -> invalid_arg ("stats reply: " ^ e)

(* ---------------------------------------------------------------- *)
(* The oracle                                                        *)
(* ---------------------------------------------------------------- *)

(* The daemon's answer to a parsed request, computed in-process with the
   library and an unlimited budget: the engine runs now, and the
   returned function renders the body. *)
let answer (req : Protocol.request) =
  let module E = Hierarchy.Engine in
  let or_error f = function
    | Ok v -> fun () -> f v
    | Error e -> fun () -> Protocol.engine_error_body e
  in
  match req.op with
  | Protocol.Classify { formula; props; chars } ->
      or_error Protocol.report_body (E.classify ?props ?chars formula)
  | Protocol.Lint { specs } -> or_error Protocol.lint_body (E.lint specs)
  | Protocol.Equiv { f1; f2; props; chars } ->
      or_error
        (fun (alpha, v) -> Protocol.equiv_body alpha v)
        (Result.bind (E.parse f1) @@ fun a ->
         Result.bind (E.parse f2) @@ fun b ->
         Result.bind (E.alphabet ?props ?chars [ a; b ]) @@ fun alpha ->
         Result.map (fun v -> (alpha, v)) (E.equiv alpha a b))
  | _ -> fun () -> Protocol.error_body ~code:"internal" ~message:"unexpected op"

(* What the daemon must answer to [line].  [None] for a frame that is
   not JSON: its reply is checked to be a rejection only. *)
let expected line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j -> (
      match Protocol.parse_request j with
      | Error (id, code, message) -> Some (Protocol.render ~id (Protocol.error_body ~code ~message))
      | Ok req -> Some (Protocol.render ~id:req.Protocol.id (answer req ())))

let is_rejection reply =
  match Json.of_string reply with
  | Ok j -> Json.member "status" j = Some (Json.String "error")
  | Error _ -> false

let check ~item ~frame ~reply =
  let op = if String.length frame > 120 then String.sub frame 0 120 ^ "..." else frame in
  if is_malformed item && not (is_rejection reply) then
    fail ~op ~check:"malformed-frame-rejected" "reply %s" reply;
  match expected frame with
  | Some e when e <> reply -> fail ~op ~check:"reply-equals-library" "got %s, expected %s" reply e
  | _ -> ()
