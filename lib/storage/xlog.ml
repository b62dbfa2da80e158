(* Length-prefixed binary frames with per-record CRC and a monotonic
   LSN, after tarantool's xlog discipline (DESIGN.md §16).  One frame:

     [len:u32le][lsn:u64le][crc:u32le][payload bytes]

   where [len] counts only the payload and [crc] covers the 8 LSN bytes
   followed by the payload — a frame whose length field was torn off
   mid-write cannot masquerade as valid, because the checksum seals the
   identity of the record, not just its bytes.

   The pure codec ([encode_frame]/[decode_frame]) carries the totality
   laws in test/test_props.ml; the file reader below adds the magic
   header and the torn-vs-corrupt classification: an incomplete frame at
   end-of-file is a torn tail (the crash interrupted the final write —
   truncate and warn), a checksum failure whose frame does NOT reach
   end-of-file is corruption (refuse with a structured error). *)

let header_bytes = 16

let max_payload = 1 lsl 28 (* 256 MiB: far above any real record *)

type frame_error =
  | Torn  (** incomplete frame: more bytes were expected *)
  | Crc_mismatch of int
      (** a full frame is present but its checksum fails; the [int] is
          the frame's total extent in bytes, so a file reader can tell
          a torn final write (frame ends exactly at EOF) from mid-file
          corruption *)
  | Malformed of string  (** impossible length field *)

let pp_frame_error ppf = function
  | Torn -> Fmt.string ppf "torn (incomplete frame)"
  | Crc_mismatch _ -> Fmt.string ppf "crc mismatch"
  | Malformed m -> Fmt.pf ppf "malformed (%s)" m

let u32le_bytes n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (n land 0xffffffff));
  Bytes.unsafe_to_string b

let u64le_bytes n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.unsafe_to_string b

let read_u32le s pos =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let read_u64le s pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

let encode_frame ~lsn payload =
  if lsn < 0 then invalid_arg "Xlog.encode_frame: negative lsn";
  if String.length payload > max_payload then
    invalid_arg "Xlog.encode_frame: oversized payload";
  let lsn_bytes = u64le_bytes lsn in
  let crc = Crc32.pair lsn_bytes payload in
  String.concat ""
    [ u32le_bytes (String.length payload); lsn_bytes; u32le_bytes crc; payload ]

let decode_frame ?(pos = 0) buf =
  let remaining = String.length buf - pos in
  if remaining < header_bytes then Error Torn
  else begin
    let len = read_u32le buf pos in
    if len > max_payload then
      Error (Malformed (Printf.sprintf "payload length %d exceeds limit" len))
    else begin
      let lsn64 = read_u64le buf (pos + 4) in
      let crc = read_u32le buf (pos + 12) in
      if remaining < header_bytes + len then Error Torn
      else begin
        let payload = String.sub buf (pos + header_bytes) len in
        let lsn_bytes = String.sub buf (pos + 4) 8 in
        let extent = header_bytes + len in
        if Crc32.pair lsn_bytes payload <> crc then Error (Crc_mismatch extent)
        else if Int64.compare lsn64 0L < 0 || Int64.to_int lsn64 |> Int64.of_int <> lsn64
        then Error (Malformed "bad lsn")
        else Ok (Int64.to_int lsn64, payload, extent)
      end
    end
  end

(* ---------------------------------------------------------------- *)
(* Files: an 8-byte magic followed by frames. *)

let wal_magic = "CWAL0001"

let snap_magic = "CSNP0001"

let magic_bytes = 8

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* What a scan of one file yields.  [valid_size] is the byte offset just
   past the last valid frame: a writer reopening the file truncates to
   it, which is exactly the truncate-and-warn rule for torn tails. *)
type scan = {
  frames : (int * string) list;  (** (lsn, payload) in file order *)
  valid_size : int;
  torn : bool;  (** a torn tail follows [valid_size] *)
}

let scan_file ~magic path =
  match read_whole_file path with
  | exception Sys_error m -> Error m
  | buf ->
      let size = String.length buf in
      if size < magic_bytes then
        (* creat-then-crash before even the magic landed: an empty torn
           file, rewritten from scratch on the next open *)
        if size = 0 then Ok { frames = []; valid_size = 0; torn = false }
        else Ok { frames = []; valid_size = 0; torn = true }
      else if not (String.equal (String.sub buf 0 magic_bytes) magic) then
        Error (Printf.sprintf "%s: bad magic (not a %s file)" path magic)
      else begin
        let frames = ref [] in
        let pos = ref magic_bytes in
        let result = ref None in
        while !result = None do
          if !pos = size then
            result := Some (Ok { frames = List.rev !frames; valid_size = !pos; torn = false })
          else
            match decode_frame ~pos:!pos buf with
            | Ok (lsn, payload, consumed) ->
                frames := (lsn, payload) :: !frames;
                pos := !pos + consumed
            | Error Torn ->
                result := Some (Ok { frames = List.rev !frames; valid_size = !pos; torn = true })
            | Error (Crc_mismatch extent) when !pos + extent = size ->
                (* the final frame's bytes are all there but the
                   checksum fails: the crash tore the write itself *)
                result := Some (Ok { frames = List.rev !frames; valid_size = !pos; torn = true })
            | Error (Crc_mismatch _) ->
                result :=
                  Some
                    (Error
                       (Printf.sprintf "%s: checksum failure at offset %d (mid-file corruption)" path !pos))
            | Error (Malformed m) ->
                result :=
                  Some (Error (Printf.sprintf "%s: %s at offset %d" path m !pos))
        done;
        match !result with Some r -> r | None -> assert false
      end

(* ---------------------------------------------------------------- *)
(* Writer: a raw fd so fsync is available.  [append] writes one whole
   frame with a single [write] loop; [sync] is a real fsync. *)

type writer = { fd : Unix.file_descr; path : string }

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let create_writer ~magic path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd magic;
  { fd; path }

(* Reopen an existing file for appending, truncating away a torn tail
   first ([valid_size] from {!scan_file}).  A file whose magic itself
   was torn off ([valid_size] = 0) is rewritten from scratch. *)
let append_writer ~magic path ~valid_size =
  if valid_size = 0 then create_writer ~magic path
  else begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd valid_size;
    ignore (Unix.lseek fd 0 Unix.SEEK_END);
    { fd; path }
  end

let append w ~lsn payload = write_all w.fd (encode_frame ~lsn payload)

let sync w = Unix.fsync w.fd

let close_writer w = try Unix.close w.fd with Unix.Unix_error _ -> ()
