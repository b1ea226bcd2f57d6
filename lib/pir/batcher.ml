type t = { server : Server.t; sessions : Server.Session.t array }

let start server ~width =
  if width <= 0 then invalid_arg "Batcher.start: width must be positive";
  { server;
    sessions = Array.init width (fun _ -> Server.Session.start ~share:width server) }

let width t = Array.length t.sessions
let server t = t.server
let sessions t = t.sessions
let session t i = t.sessions.(i)

let next_round t =
  let share = Array.length t.sessions in
  Array.iter (Server.Session.next_round ~share) t.sessions
  [@@oblivious]

let fetch t ~file ~pages:(pages [@secret]) =
  (if Array.length pages <> Array.length t.sessions then
     invalid_arg "Batcher.fetch: one page per session required")
  [@leak_ok
    "the guard reads only the array's length — the public batch width — never the \
     secret page indices inside it"];
  (Server.Session.fetch_batch ~file
     (Array.mapi (fun i page -> (t.sessions.(i), page)) pages)
  [@leak_ok
    "the merged pass branches and iterates on the batch width and session \
     identities — both public — while the page index inside each pair stays \
     opaque until the oblivious store resolves it"])
  [@@oblivious]

let note_retry t ~backoff =
  Array.iter (fun s -> Server.Session.note_retry s ~backoff) t.sessions
  [@@oblivious]

let finish t = Array.map Server.Session.finish t.sessions
