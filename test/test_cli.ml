(* The pspc front end: a bad flag value must be a cmdliner usage error —
   exit 124, a message naming the flag — never an uncaught exception
   (cmdliner's exit 125). *)

let pspc = Filename.concat (Filename.concat ".." "bin") "pspc.exe"

(* Run pspc with [args], returning its exit code and merged output. *)
let run args =
  let out = Filename.temp_file "pspc" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote pspc)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let usage_error ~flag args () =
  let code, text = run args in
  Alcotest.(check int) "usage error exit code" 124 code;
  Alcotest.(check bool)
    (Printf.sprintf "no uncaught exception in %S" text)
    false
    (contains ~sub:"uncaught exception" text);
  Alcotest.(check bool) (Printf.sprintf "message names %s in %S" flag text) true
    (contains ~sub:flag text)

let old = [ "--preset"; "old"; "--preset-scale"; "32" ]

let () =
  Alcotest.run "cli"
    [ ( "usage-errors",
        [ Alcotest.test_case "batch --width 0" `Quick
            (usage_error ~flag:"--width" ([ "batch" ] @ old @ [ "--width"; "0" ]));
          Alcotest.test_case "query --replicas 0" `Quick
            (usage_error ~flag:"--replicas" ([ "query" ] @ old @ [ "--replicas"; "0" ]));
          Alcotest.test_case "query -s out of range" `Quick
            (usage_error ~flag:"-s" ([ "query" ] @ old @ [ "-s"; "999999"; "-t"; "3" ])) ] )
    ]
