(* Shared machinery of the benchmark runner: clocks, order statistics,
   the span recorder used by traced runs, output checks, input identity
   and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ------------------------------------------------ *)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

(* --- spans ------------------------------------------------------------ *)

(* Traced runs wrap each call into a layer in [span name f]: wall-clock
   start and end plus the enclosing span, kept in memory and written
   out as Chrome trace events when the run ends.  Untraced runs never
   call it. *)
type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      stack := List.tl !stack;
      spans := { id; parent; name; t0; t1 } :: !spans)
    f

(* Total wall seconds of every span called [name]. *)
let span_total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

let span_count name =
  List.fold_left (fun acc s -> if s.name = name then acc + 1 else acc) 0 !spans

(* The share of the spans called [name] that none of their direct
   children covers: the time no timed call accounts for. *)
let unattributed_share name =
  let tops = List.filter (fun s -> s.name = name) !spans in
  let ids = List.map (fun s -> s.id) tops in
  let total = sum (List.map (fun s -> s.t1 -. s.t0) tops) in
  let covered =
    sum
      (List.filter_map
         (fun s -> if List.mem s.parent ids then Some (s.t1 -. s.t0) else None)
         !spans)
  in
  if total <= 0.0 then 0.0 else Float.max 0.0 (1.0 -. (covered /. total))

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\
             \"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            s.name (s.t0 *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent)
        (List.rev !spans);
      output_string oc "\n]\n")

(* --- output checks ---------------------------------------------------- *)

(* Every checked output counts as attempted; a wrong one counts as
   failed, is reported on stderr, and makes the run exit non-zero. *)
let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: wrong output: %s\n%!" what
  end

(* Counts that must repeat exactly (across passes of one run, and
   between a traced run and its untraced reference). *)
let same_count what a b =
  if a <> b then begin
    incr failed;
    Printf.eprintf "perfbench: count mismatch: %s: %d vs %d\n%!" what a b
  end

(* [--inject-fault]: the benchmark's own tests corrupt one output per
   run to prove that the checks catch it. *)
let inject_fault = ref false

let take_fault () =
  if !inject_fault then begin
    inject_fault := false;
    true
  end
  else false

(* --- input identity ---------------------------------------------------- *)

let digest_file path = Digest.to_hex (Digest.file path)
let digest_strings xs = Digest.to_hex (Digest.string (String.concat "\000" xs))

let identity : (string * string) list ref = ref []
let note_identity k v = identity := !identity @ [ (k, v) ]

(* --- memory ------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

(* --- set-up ------------------------------------------------------------ *)

(* Set-up is repeated - at least 5 times, and until 2 s have gone into
   it, at most 50 times - and reported as the median, so one slow start
   does not read as a regression.  Returns the last round's result and
   the median time. *)
let setup_median f =
  let rec go n spent times =
    let r, dt = time f in
    let times = dt :: times and spent = spent +. dt in
    if n + 1 >= 50 || (n + 1 >= 5 && spent >= 2.0) then (r, median times)
    else go (n + 1) spent times
  in
  go 0 0.0 []

(* --- workloads ----------------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;  (** measuring time of the untraced run *)
  traced : bool;
  tiny : bool;  (** the benchmark's own tests: smallest inputs *)
  out_dir : string;  (** scratch space inside the checkout *)
  serve_exe : string;
}

(* The seed that reproduces the paper-shaped inputs (PRO1-PRO10, the 24
   MiniC programs alone), and the one every untraced run draws its timed
   work from. *)
let default_seed = 104729

(* The host this benchmark was tuned on runs its vCPUs in two speed
   modes about 1.7x apart, switching every 10-100 ms with the load of
   other tenants; the share of slow time drifts by tens of percent over
   minutes.  A median or mean of operation times follows that share.
   The fastest of several repeats of the same deterministic work
   follows the code: on 20 s samples of a 0.5 ms kernel its
   interquartile spread was 0.02 against 0.23 for the median.  So every
   timed figure is built from short units of work, each repeated, each
   counted at its fastest repeat.  See README.md, "Steadiness". *)

(* Rounds an untraced run makes for [--seconds]: as many as fit at the
   round's nominal duration (measured once on a 2-core host and fixed
   here), at least 3.  A fixed count, so the work, the counts and the
   memory high-water mark do not depend on how fast the host runs. *)
let rounds ~seconds ~nominal_s = max 3 (int_of_float (seconds /. nominal_s))

(* [fastest n units f] runs [f] on every unit, round after round, [n]
   rounds, each round from a compacted heap.  For each unit it returns
   the outcomes in round order and the fastest time.

   With [~both_cpus:true] (single-threaded work only) a forked copy of
   the process runs the same rounds at the same time and sends back its
   outcomes and times: the two vCPUs of the host enter their slow phases
   independently (on 30 s of a kernel run on both at once, one was slow
   for 5-10 s at a time while the other was fast), so each unit counts at
   its fastest repeat on either. *)
let fastest ?(both_cpus = false) n units f =
  let rounds () =
    List.init n (fun _ ->
        Gc.compact ();
        List.map (fun u -> time (fun () -> f u)) units)
  in
  let results =
    if not both_cpus then rounds ()
    else begin
      flush_all ();
      let rd, wr = Unix.pipe ~cloexec:true () in
      match Unix.fork () with
      | 0 ->
          Unix.close rd;
          let code =
            match rounds () with
            | results ->
                let oc = Unix.out_channel_of_descr wr in
                Marshal.to_channel oc results [];
                close_out oc;
                0
            | exception _ -> 2
          in
          Unix._exit code
      | pid ->
          Unix.close wr;
          let mine = rounds () in
          let ic = Unix.in_channel_of_descr rd in
          let theirs =
            Fun.protect
              ~finally:(fun () ->
                close_in_noerr ic;
                ignore (Unix.waitpid [] pid))
              (fun () ->
                try (Marshal.from_channel ic : (_ * float) list list)
                with End_of_file -> failwith "perfbench: the forked copy failed")
          in
          mine @ theirs
    end
  in
  List.mapi
    (fun i _ ->
      let mine = List.map (fun r -> List.nth r i) results in
      ( List.map fst mine,
        List.fold_left (fun m (_, dt) -> Float.min m dt) Float.infinity mine ))
    units
