(* Consistent hashing of canonical solve keys onto workers.

   Workers are integers [0..n-1]; each contributes [vnodes] points on a
   hash circle.  A key is served by the first point clockwise from its
   own hash, and its preference list is the sequence of distinct workers
   met walking onward — the router falls down that list when a worker is
   dead or shedding, so a key's requests concentrate on one worker's LRU
   cache while any worker can serve it correctly (solves are
   deterministic and keyed by canonical instance).

   The hash is a fixed splitmix-style avalanche, not [Hashtbl.hash]: the
   placement must be identical across processes and runs so the chaos
   harness can reason about which worker owns which key.  It mixes eight
   bytes per step (little-endian words, then the byte tail, with the
   length folded into the seed), since solve keys run to several
   kilobytes.  [Int64.to_int] drops bit 63 of each word, the top bit of
   its last byte, which is zero in the text keys the ring sees. *)

type t = { points : (int * int) array; workers : int }

let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x4be98134a5976fd3 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x3bd6e995bd9d65 in
  h lxor (h lsr 32)

let hash_string s =
  let n = String.length s in
  let step h x = mix ((h * 0x100000001b3) + x) in
  let h = ref (step 0x27d4eb2f165667 n) in
  let words = n / 8 in
  for i = 0 to words - 1 do
    h := step !h (Int64.to_int (String.get_int64_le s (8 * i)))
  done;
  for i = 8 * words to n - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  mix !h land max_int

let create ?(vnodes = 64) workers =
  if workers <= 0 then invalid_arg "Ring.create: need at least one worker";
  if vnodes <= 0 then invalid_arg "Ring.create: need at least one virtual node";
  let points =
    Array.init (workers * vnodes) (fun i ->
        let w = i / vnodes and v = i mod vnodes in
        (hash_string (Printf.sprintf "worker-%d#%d" w v), w))
  in
  Array.sort compare points;
  { points; workers }

let size t = t.workers

(* index of the first point with hash >= h, wrapping to 0 past the end *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup t key = snd t.points.(successor t (hash_string key))

let preference t key =
  let n = Array.length t.points in
  let start = successor t (hash_string key) in
  let seen = Array.make t.workers false in
  let order = ref [] in
  let found = ref 0 in
  let i = ref 0 in
  while !found < t.workers && !i < n do
    let w = snd t.points.((start + !i) mod n) in
    if not seen.(w) then begin
      seen.(w) <- true;
      order := w :: !order;
      incr found
    end;
    incr i
  done;
  List.rev !order
