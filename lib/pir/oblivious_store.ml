module Obs = Psp_obs.Obs

exception Tampering_detected of { slot : int }

(* Telemetry: a sqrt-ORAM read touches exactly one physical slot, and
   the reshuffle cadence is a public function of the access count
   (DESIGN.md §5) — both are safe to count.  Which slot, or whether a
   read was a shelter hit, is never recorded. *)
let m_slot_reads = Obs.counter "oram.sqrt.slot_reads"
let m_shuffles = Obs.counter "oram.sqrt.shuffles"

type physical_event =
  | Slot of { epoch : int; slot : int }
  | Reshuffle of { epoch : int }

(* encrypt-then-MAC: the ciphertext and a 32-byte tag over
   nonce ‖ ciphertext, as the host stores them *)
type sealed_slot = { cipher : bytes; tag : bytes }

type t = {
  master_key : bytes;
  zero_page : bytes; (* the plaintext of every dummy slot, shared, never mutated *)
  n : int; (* logical pages *)
  dummies : int;
  plain : bytes array; (* the database content, SCP-side ground truth *)
  mutable slots : sealed_slot array; (* encrypted physical slots, host-side *)
  mutable perm : Psp_crypto.Feistel.t; (* logical index -> physical slot *)
  mutable enc_key : bytes; (* this epoch's slot keys, derived once per shuffle *)
  mutable mac_key : Psp_crypto.Hmac.prepared;
  mutable epoch : int;
  shelter : (int, bytes) Hashtbl.t; (* sheltered logical pages *)
  mutable dummy_cursor : int; (* dummies consumed this epoch *)
  trace : physical_event Psp_util.Dyn_array.t;
  mutable slot_touches : int; (* physical slot touches ever executed *)
  mutable sweeps : int; (* merged sweeps ever executed *)
}

let isqrt_up n = int_of_float (ceil (sqrt (float_of_int n)))

let epoch_key t = Psp_crypto.Hmac.derive ~key:t.master_key ~label:(Printf.sprintf "epoch-%d" t.epoch)

let slot_nonce slot =
  let nonce = Bytes.make 12 '\000' in
  for i = 0 to 7 do
    Bytes.set nonce i (Char.chr ((slot lsr (8 * i)) land 0xFF))
  done;
  nonce

let encrypt_slot t ~slot plaintext =
  let nonce = slot_nonce slot in
  let cipher = Psp_crypto.Chacha20.encrypt ~key:t.enc_key ~nonce plaintext in
  { cipher; tag = Psp_crypto.Hmac.mac_prepared t.mac_key ~prefix:nonce cipher }
  [@@oblivious]

let decrypt_slot t ~slot stored =
  let nonce = slot_nonce slot in
  if not (Psp_crypto.Hmac.verify_prepared t.mac_key ~prefix:nonce stored.cipher ~tag:stored.tag)
  then raise (Tampering_detected { slot });
  Psp_crypto.Chacha20.decrypt ~key:t.enc_key ~nonce stored.cipher
  [@@leak_ok
    "branches only on the stored slot's MAC validity — host-supplied data, \
     not the secret page index; the abort names the physical slot, which \
     the host already observes"]
  [@@oblivious]

(* Re-scatter every page (and fresh dummies) under this epoch's keys. *)
let shuffle t =
  Obs.incr m_shuffles;
  let key = epoch_key t in
  let perm_key = Psp_crypto.Hmac.derive ~key ~label:"perm" in
  t.enc_key <- Psp_crypto.Hmac.derive ~key ~label:"enc";
  t.mac_key <- Psp_crypto.Hmac.prepare (Psp_crypto.Hmac.derive ~key:t.enc_key ~label:"slot-mac");
  let total = t.n + t.dummies in
  t.perm <- Psp_crypto.Feistel.create ~key:perm_key ~domain:total;
  let slots = Array.make total { cipher = Bytes.empty; tag = Bytes.empty } in
  for i = 0 to total - 1 do
    let slot = Psp_crypto.Feistel.forward t.perm i in
    let plaintext = if i < t.n then t.plain.(i) else t.zero_page in
    slots.(slot) <- encrypt_slot t ~slot plaintext
  done;
  t.slots <- slots;
  Hashtbl.reset t.shelter;
  t.dummy_cursor <- 0
  [@@oblivious]

let create ~key file =
  let n = Psp_storage.Page_file.page_count file in
  if n = 0 then invalid_arg "Oblivious_store.create: empty file";
  let t =
    { master_key = Psp_crypto.Hmac.derive ~key ~label:("store:" ^ Psp_storage.Page_file.name file);
      zero_page = Bytes.make (Psp_storage.Page_file.page_size file) '\000';
      n;
      dummies = max 1 (isqrt_up n);
      plain = Array.init n (Psp_storage.Page_file.read file);
      slots = [||];
      perm = Psp_crypto.Feistel.create ~key ~domain:1;
      enc_key = Bytes.empty;
      mac_key = Psp_crypto.Hmac.prepare Bytes.empty;
      epoch = 0;
      shelter = Hashtbl.create 16;
      dummy_cursor = 0;
      trace = Psp_util.Dyn_array.create ();
      slot_touches = 0;
      sweeps = 0 }
  in
  shuffle t;
  t

let page_count t = t.n
let slot_count t = t.n + t.dummies
let shelter_capacity t = t.dummies
let epoch t = t.epoch

(* Where a chunk member's page comes from: its own (real) slot, the SCP
   shelter, or an earlier member of the same chunk.  The planned
   physical slot travels with the decision. *)
type probe = Real of int | Sheltered of int | Member of { supplier : int; slot : int }

(* Serve a width-k batch of reads as one merged sweep per epoch chunk.
   The batch is cut at the reshuffle cadence (a reshuffle re-keys and
   re-permutes every slot, so probes across it cannot share a sweep);
   within a chunk the plan decides each member's physical slot in member
   order — a repeat of a sheltered (or same-chunk) page consumes the
   next unused dummy, a fresh page maps through the epoch permutation,
   exactly as k sequential reads would — and the execution touches the
   planned slots in one sequential sweep under a single key schedule.
   Per-member slot touches are therefore byte-identical to the
   sequential execution's.

   The array itself is not marked secret — its length (the batch width)
   is public, and the loop structure below depends only on it and on the
   access count; the page indices inside are marked [@secret] where they
   are read out, exactly as Server.Session.fetch_batch treats its
   request array. *)
let fetch_many t ids =
  let k = Array.length ids in
  (* constant delta before any secret-dependent work: one slot per member *)
  Obs.add m_slot_reads k;
  (Array.iter
     (fun (i [@secret]) ->
       if i < 0 || i >= t.n then invalid_arg "Oblivious_store.fetch_many: page out of range")
     ids)
  [@leak_ok
    "bounds check fails closed with a constant message before any slot is touched; \
     the trip count is the public batch width"];
  let results = Array.make k Bytes.empty in
  let rec serve base =
    if base >= k then ()
    else begin
    (* epoch room: each read advances shelter + consumed dummies by one,
       so the chunk boundary is a public function of the access count *)
    let chunk = min (k - base) (t.dummies - (Hashtbl.length t.shelter + t.dummy_cursor)) in
    let plan =
      (Array.make chunk (Real 0))
      [@leak_ok
        "the chunk length is a public function of the access count and the batch \
         width (the reshuffle cadence), never of which pages were accessed"]
    in
    let pending =
      (Hashtbl.create (2 * chunk))
      [@leak_ok "sized by the public chunk length, as above"]
    in
    (for m = 0 to chunk - 1 do
       let (i [@secret]) = ids.(base + m) in
       let dummy () =
         let slot = Psp_crypto.Feistel.forward t.perm (t.n + t.dummy_cursor) in
         t.dummy_cursor <- t.dummy_cursor + 1;
         slot
       in
       match Hashtbl.find_opt pending i with
       | Some supplier -> plan.(m) <- Member { supplier; slot = dummy () }
       | None ->
           if Hashtbl.mem t.shelter i then plan.(m) <- Sheltered (dummy ())
           else begin
             plan.(m) <- Real (Psp_crypto.Feistel.forward t.perm i);
             Hashtbl.replace pending i m
           end
     done)
    [@leak_ok
      "every member is planned exactly one freshly permuted physical slot: a \
       sheltered or repeated page consumes the next unused dummy, a fresh page maps \
       through the epoch permutation — the host cannot tell the cases apart"];
    (* one sequential sweep over the planned slots, in member order,
       under the epoch's keys; every probe (dummy included) is fetched
       and authenticated, as in the sequential path *)
    t.sweeps <- t.sweeps + 1;
    (for m = 0 to chunk - 1 do
       let slot =
         match plan.(m) with Real s | Sheltered s | Member { slot = s; _ } -> s
       in
       t.slot_touches <- t.slot_touches + 1;
       Psp_util.Dyn_array.push t.trace (Slot { epoch = t.epoch; slot });
       let page = decrypt_slot t ~slot t.slots.(slot) in
       match plan.(m) with Real _ -> results.(base + m) <- page | _ -> ()
     done)
    [@leak_ok
      "the sweep touches and authenticates one slot per member regardless of the \
       plan arm; only the client-side retention of the decrypted page differs"];
    (* retire the chunk in member order: shelter the fresh pages, route
       repeats from the shelter or their same-chunk supplier *)
    (for m = 0 to chunk - 1 do
       let (i [@secret]) = ids.(base + m) in
       match plan.(m) with
       | Real _ -> Hashtbl.replace t.shelter i results.(base + m)
       | Sheltered _ -> results.(base + m) <- Hashtbl.find t.shelter i
       | Member { supplier; _ } -> results.(base + m) <- results.(base + supplier)
     done)
    [@leak_ok
      "payload routing between client-side copies after the host already observed \
       one slot touch per member"];
    (* sheltered + consumed dummies = accesses this epoch; reshuffling at
       a fixed access count keeps the epoch cadence pattern-independent *)
    (if Hashtbl.length t.shelter + t.dummy_cursor >= t.dummies then begin
       t.epoch <- t.epoch + 1;
       Psp_util.Dyn_array.push t.trace (Reshuffle { epoch = t.epoch });
       shuffle t
     end)
    [@leak_ok
      "shelter size + consumed dummies advances by one per read, so the reshuffle \
       cadence is a public function of the access count alone"];
    serve (base + chunk)
    end
  in
  serve 0;
  results
  [@@oblivious]

let read t (i [@secret]) =
  (if i < 0 || i >= t.n then invalid_arg "Oblivious_store.read: page out of range")
  [@leak_ok "bounds check fails closed with a constant message before any slot is touched"];
  ((fetch_many t [| i |]).(0))
  [@leak_ok
    "a width-1 merged pass: fetch_many's loop structure depends only on the public \
     batch width (here 1) and the access count, never on the page index"]
  [@@oblivious]

let physical_trace t = Psp_util.Dyn_array.to_list t.trace
let clear_trace t = Psp_util.Dyn_array.clear t.trace
let slot_touches t = t.slot_touches
let sweeps t = t.sweeps

let corrupt_slot t ~slot =
  if slot < 0 || slot >= Array.length t.slots then
    invalid_arg "Oblivious_store.corrupt_slot: slot out of range";
  let stored = t.slots.(slot) in
  let b = Bytes.copy stored.cipher in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  t.slots.(slot) <- { stored with cipher = b }
