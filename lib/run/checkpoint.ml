(* Versioned per-rank snapshots of wavefront state, the passive half of
   the recovery layer. The active half is [Perturb.Model]'s protocol —
   the kill, the revival and the checkpoint/restart/replay charges every
   simulated substrate spends — plus [Shmpi] supervision, which rolls a
   killed real rank back to its snapshot.

   A snapshot is everything a rank needs to re-enter [Program.run_rank]
   at a tile boundary: the resumable {!Substrate.position}, the
   accumulated solution block [phi], the transport kernel's carried
   z-face [zbuf]/[zpos] (intra-sweep state that flows tile to tile), and
   per-peer message-sequence marks [sent]/[recvd] that tell the channel
   log how far to rewind and what it may release.

   Snapshots are taken at {!Substrate.S.tile_begin} when
   [Perturb.Recover.due] says the wave is a checkpoint wave. The interval
   [K = 0] means checkpointing is disabled — [due] is then never true, so
   a zero policy is invisible by construction. *)

type snapshot = {
  rank : int;
  version : int;  (** Monotonic per rank; higher is newer. *)
  wave : int;  (** Global wave index of the checkpointed position. *)
  position : Substrate.position;  (** Next tile step to execute. *)
  phi : float array;  (** The rank's accumulated solution block. *)
  zbuf : float array;  (** Transport z-face carried between tiles. *)
  zpos : int;  (** Plane frontier within the current sweep. *)
  sent : int array;  (** Per-destination-rank send sequence marks. *)
  recvd : int array;  (** Per-source-rank receive sequence marks. *)
}

(* A store hides where snapshots live. Ranks save concurrently from
   their own domains; implementations synchronise internally. *)
type store = {
  save : snapshot -> unit;
  latest : rank:int -> snapshot option;
  saves : unit -> int;
}

let save t s = t.save s
let latest t ~rank = t.latest ~rank
let saves t = t.saves ()

module Memory = struct
  let create () =
    let mutex = Mutex.create () in
    let table : (int, snapshot) Hashtbl.t = Hashtbl.create 16 in
    let count = ref 0 in
    let locked f =
      Mutex.lock mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f
    in
    {
      save =
        (fun s ->
          locked (fun () ->
              incr count;
              Hashtbl.replace table s.rank s));
      latest = (fun ~rank -> locked (fun () -> Hashtbl.find_opt table rank));
      saves = (fun () -> locked (fun () -> !count));
    }
end

(* File-backed store: one file per rank, atomically replaced on save
   (write to a dot-temporary, then rename). The format is explicit
   little-endian binary under a magic/version header so a stale or
   foreign file is rejected rather than misread. *)
module File = struct
  let magic = "WFCKPT01"

  let encode (s : snapshot) =
    let b = Buffer.create (64 + (8 * (Array.length s.phi + Array.length s.zbuf)))
    in
    Buffer.add_string b magic;
    let int i = Buffer.add_int64_le b (Int64.of_int i) in
    let floats a =
      int (Array.length a);
      Array.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) a
    in
    let ints a =
      int (Array.length a);
      Array.iter int a
    in
    int s.rank;
    int s.version;
    int s.wave;
    int s.position.iteration;
    int s.position.sweep;
    int s.position.tile;
    int s.zpos;
    floats s.phi;
    floats s.zbuf;
    ints s.sent;
    ints s.recvd;
    Buffer.contents b

  let decode data =
    let pos = ref 0 in
    let need n =
      if !pos + n > String.length data then failwith "checkpoint: truncated"
    in
    need (String.length magic);
    if String.sub data 0 (String.length magic) <> magic then
      failwith "checkpoint: bad magic";
    pos := String.length magic;
    let int () =
      need 8;
      let v = Int64.to_int (String.get_int64_le data !pos) in
      pos := !pos + 8;
      v
    in
    let floats () =
      let n = int () in
      if n < 0 then failwith "checkpoint: bad length";
      Array.init n (fun _ ->
          need 8;
          let v = Int64.float_of_bits (String.get_int64_le data !pos) in
          pos := !pos + 8;
          v)
    in
    let ints () =
      let n = int () in
      if n < 0 then failwith "checkpoint: bad length";
      Array.init n (fun _ -> int ())
    in
    let rank = int () in
    let version = int () in
    let wave = int () in
    let iteration = int () in
    let sweep = int () in
    let tile = int () in
    let zpos = int () in
    let phi = floats () in
    let zbuf = floats () in
    let sent = ints () in
    let recvd = ints () in
    {
      rank;
      version;
      wave;
      position = { iteration; sweep; tile };
      phi;
      zbuf;
      zpos;
      sent;
      recvd;
    }

  let path dir rank = Filename.concat dir (Fmt.str "rank-%04d.ckpt" rank)

  let create ~dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let mutex = Mutex.create () in
    let count = ref 0 in
    let locked f =
      Mutex.lock mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f
    in
    let save s =
      locked (fun () ->
          incr count;
          let final = path dir s.rank in
          let tmp = final ^ ".tmp" in
          let oc = open_out_bin tmp in
          output_string oc (encode s);
          close_out oc;
          Sys.rename tmp final)
    in
    let latest ~rank =
      locked (fun () ->
          let file = path dir rank in
          if not (Sys.file_exists file) then None
          else
            let ic = open_in_bin file in
            let len = in_channel_length ic in
            let data = really_input_string ic len in
            close_in ic;
            Some (decode data))
    in
    { save; latest; saves = (fun () -> locked (fun () -> !count)) }
end

let memory_store = Memory.create
let file_store ~dir = File.create ~dir
