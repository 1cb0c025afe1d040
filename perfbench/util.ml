(* Shared helpers: seeded generators, clocks, order statistics, /proc
   readings and the failure that names the broken check. *)

(* The hpt binary, relative to the root of the checkout, where
   run.sh builds it and every command runs. *)
let hpt_binary = "_build/default/bin/hpt.exe"

exception Check_failed of { op : string; check : string; detail : string }

let fail ~op ~check fmt =
  Printf.ksprintf (fun detail -> raise (Check_failed { op; check; detail })) fmt

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

let pick st arr = arr.(Random.State.int st (Array.length arr))

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Seconds on the monotonic clock, to the nanosecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 100]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* Peak resident set of a process, from [VmHWM] in /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* The propositional lasso whose letter at every position is chosen by
   [st]: used to sample words for the semantic oracles. *)
let random_lasso st alpha ~max_prefix ~max_cycle =
  let k = Finitary.Alphabet.size alpha in
  let word len = Array.init len (fun _ -> Random.State.int st k) in
  Finitary.Word.lasso
    ~prefix:(word (Random.State.int st (max_prefix + 1)))
    ~cycle:(word (1 + Random.State.int st max_cycle))
