(* The benchmark's own arithmetic: the tail-percentile rule, span
   parent and request-id bookkeeping, and self time. *)

open Perfbench

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))

(* ---- tail rule ---------------------------------------------------- *)

let test_rank () =
  check_int "p50 of 100" 50 (Tail.rank ~n:100 0.5);
  check_int "p90 of 100" 90 (Tail.rank ~n:100 0.9);
  check_int "p90 of 99 rounds up" 90 (Tail.rank ~n:99 0.9);
  check_int "p95 of 200" 190 (Tail.rank ~n:200 0.95);
  check_int "p100" 7 (Tail.rank ~n:7 1.0);
  check_int "tiny p" 1 (Tail.rank ~n:7 0.01)

let test_beyond () =
  check_int "100 samples leave 10 beyond p90" 10 (Tail.beyond ~n:100 0.9);
  check_int "99 samples leave 9 beyond p90" 9 (Tail.beyond ~n:99 0.9);
  Alcotest.(check bool) "p90 of 100 allowed" true (Tail.tail_ok ~n:100 0.9);
  Alcotest.(check bool) "p90 of 99 refused" false (Tail.tail_ok ~n:99 0.9);
  Alcotest.(check bool) "p95 of 199 refused" false (Tail.tail_ok ~n:199 0.95)

let test_min_samples () =
  check_int "p90" 100 (Tail.min_samples 0.9);
  check_int "p95" 200 (Tail.min_samples 0.95);
  check_int "p99" 1000 (Tail.min_samples 0.99)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check_float "p50 of 1..100" 50.0 (Tail.percentile xs 0.5);
  check_float "p90 of 1..100" 90.0 (Tail.percentile xs 0.9);
  check_float "input untouched" 100.0 xs.(0);
  Alcotest.check_raises "no samples" (Invalid_argument "Tail.rank: no samples") (fun () ->
      ignore (Tail.percentile [||] 0.5))

(* ---- spans -------------------------------------------------------- *)

(* A clock that advances one unit per reading. *)
let ticking () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

let find spans name = List.find (fun (s : Spans.span) -> s.name = name) spans

let test_parent_and_request () =
  let tr = Spans.create ~clock:(ticking ()) ~enabled:true () in
  Spans.with_span tr "request" (fun () ->
      Spans.with_span tr "client" (fun () -> Spans.with_span tr "fetch" ignore);
      Spans.with_span tr "oracle" ignore);
  Spans.with_span tr "request2" (fun () -> Spans.with_span tr "other" ignore);
  let spans = Spans.spans tr in
  let req = find spans "request" and client = find spans "client" in
  let fetch = find spans "fetch" and oracle = find spans "oracle" in
  Alcotest.(check (option int)) "root has no parent" None req.parent;
  Alcotest.(check (option int)) "client under request" (Some req.id) client.parent;
  Alcotest.(check (option int)) "fetch under client" (Some client.id) fetch.parent;
  Alcotest.(check (option int)) "oracle under request" (Some req.id) oracle.parent;
  List.iter
    (fun (s : Spans.span) -> check_int ("request id of " ^ s.name) req.req s.req)
    [ client; fetch; oracle ];
  let second = find spans "request2" in
  Alcotest.(check bool) "a new root gets a new request" true (second.req <> req.req);
  check_int "a child of the new root shares its request" second.req (find spans "other").req;
  Alcotest.(check (list string)) "ordered by start"
    [ "request"; "client"; "fetch"; "oracle"; "request2"; "other" ]
    (List.map (fun (s : Spans.span) -> s.name) spans)

let test_add_and_disabled () =
  let tr = Spans.create ~clock:(ticking ()) ~enabled:true () in
  Spans.add tr ~name:"orphan" ~start:0.0 ~stop:1.0;
  Spans.with_span tr "call" (fun () -> Spans.add tr ~name:"phase" ~start:1.5 ~stop:1.75);
  let spans = Spans.spans tr in
  Alcotest.(check (list string)) "an interval needs an open parent" [ "call"; "phase" ]
    (List.map (fun (s : Spans.span) -> s.name) spans);
  let call = find spans "call" and phase = find spans "phase" in
  Alcotest.(check (option int)) "added under the innermost span" (Some call.id) phase.parent;
  check_int "added span shares the request" call.req phase.req;
  let off = Spans.create ~enabled:false () in
  let v = Spans.with_span off "x" (fun () -> Spans.add off ~name:"y" ~start:0.0 ~stop:1.0; 7) in
  check_int "value passes through" 7 v;
  check_int "disabled records nothing" 0 (List.length (Spans.spans off))

let test_closed_on_exception () =
  let tr = Spans.create ~clock:(ticking ()) ~enabled:true () in
  (try Spans.with_span tr "outer" (fun () -> Spans.with_span tr "inner" (fun () -> failwith "x"))
   with Failure _ -> ());
  Spans.with_span tr "next" ignore;
  let spans = Spans.spans tr in
  check_int "both closed, next is a root" 3 (List.length spans);
  Alcotest.(check (option int)) "next has no parent" None (find spans "next").parent

let span ?parent id name start stop = { Spans.id; parent; req = 0; name; start; stop }

let test_self_time () =
  let root = span 0 "root" 0.0 10.0 in
  let kids =
    [ span ~parent:0 1 "a" 1.0 3.0; span ~parent:0 2 "b" 2.0 5.0; span ~parent:0 3 "c" 7.0 8.0 ]
  in
  check_float "overlapping children count once" 5.0 (Spans.self_time root ~children:kids);
  check_float "no children" 10.0 (Spans.self_time root ~children:[]);
  check_float "children clipped to the span" 8.0
    (Spans.self_time root
       ~children:[ span ~parent:0 4 "early" (-5.0) 1.0; span ~parent:0 5 "late" 9.0 20.0 ]);
  check_float "nested child inside child" 8.0
    (Spans.self_time root ~children:[ span ~parent:0 6 "x" 2.0 4.0; span ~parent:0 7 "y" 2.5 3.0 ])

let test_layer_self_times () =
  let all =
    [ span 0 "request" 0.0 10.0;
      span ~parent:0 1 "client" 1.0 7.0;
      span ~parent:1 2 "server" 1.0 5.0;
      span ~parent:0 3 "oracle" 8.0 9.0;
      span 4 "request" 20.0 22.0;
      span ~parent:4 5 "client" 20.0 21.0 ]
  in
  let layers = Spans.layer_self_times ~root_label:"unattributed" all in
  Alcotest.(check (list (pair string (float 1e-12))))
    "self time per layer, roots as unattributed"
    [ ("client", 3.0); ("oracle", 1.0); ("server", 4.0); ("unattributed", 4.0) ]
    layers;
  check_float "self times add up to the roots' durations" 12.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 layers)

let () =
  Alcotest.run "perfbench"
    [ ( "tail",
        [ Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_beyond;
          Alcotest.test_case "minimum samples" `Quick test_min_samples;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
      ( "spans",
        [ Alcotest.test_case "parent and request id" `Quick test_parent_and_request;
          Alcotest.test_case "callback intervals, disabled tracer" `Quick test_add_and_disabled;
          Alcotest.test_case "closed on exception" `Quick test_closed_on_exception;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "per-layer self times" `Quick test_layer_self_times ] ) ]
