(* The daemon's socket layer and handler as production runs them — an
   [Rr_serve.Server] over a [Core] with an [Obs] made the way [rr serve]
   makes it — driven over loopback by a single-connection lockstep client
   built on [Protocol] frames.  The client pumps the server's select loop
   ([Server.pump], the round [Server.run] repeats) in its own domain
   whenever it waits for a reply, so a round trip is the program's work
   plus the loopback syscalls, without the cross-domain wake-ups a
   two-domain ping-pong adds: on a host of a few shared cores those are
   scheduler latency, and they moved the round trip by a third from run
   to run. *)

module P = Rr_serve.Protocol
module Core = Rr_serve.Core
module Server = Rr_serve.Server
module Obs = Rr_obs.Obs
module W = Workload

type daemon = {
  core : Core.t;
  srv : Server.t;
  fd : Unix.file_descr;  (** the client's end, non-blocking *)
  framer : P.Framer.t;
  buf : Bytes.t;
  words : float array;  (** minor words allocated inside [Server.pump] *)
  preload_used : int;
  mutable admits : int;  (** admit requests this daemon has served *)
}

(* Pumps that find nothing to do in a row before the client gives up:
   each waits up to 50 ms, so about ten seconds. *)
let max_idle_pumps = 200

(* One round of the server's loop; the minor words it allocates are the
   serving side's. *)
let pump d =
  let w0 = Gc.minor_words () in
  Server.pump d.srv;
  d.words.(0) <- d.words.(0) +. (Gc.minor_words () -. w0)

let send d payload =
  let s = P.frame payload in
  let len = String.length s in
  let rec go off idle =
    if off < len then
      match Unix.write_substring d.fd s off (len - off) with
      | n -> go (off + n) 0
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        if idle >= max_idle_pumps then failwith "the server stopped reading";
        pump d;
        go off (idle + 1)
  in
  go 0 0

let recv d =
  let rec go idle =
    match P.Framer.next d.framer with
    | Some (Ok payload) -> payload
    | Some (Error e) -> failwith ("bad frame from server: " ^ P.frame_error_message e)
    | None -> (
      match Unix.read d.fd d.buf 0 (Bytes.length d.buf) with
      | 0 -> failwith "server closed the connection"
      | n ->
        P.Framer.feed d.framer (Bytes.sub_string d.buf 0 n);
        go 0
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        if idle >= max_idle_pumps then failwith "the server did not reply";
        pump d;
        go (idle + 1))
  in
  go 0

let decode payload =
  match P.decode_response payload with
  | Ok r -> r
  | Error m -> failwith ("undecodable response: " ^ m)

let rpc d req =
  send d (P.encode_request req);
  decode (recv d)

let start ?leak w ~seed =
  let net, preload_used = W.network ?leak w ~seed in
  let obs = Obs.create ~window_ns:1_000_000_000 () in
  let core = Core.create ~obs net in
  let srv = Server.create ~port:0 core in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
  Unix.set_nonblock fd;
  let d =
    {
      core; srv; fd; framer = P.Framer.create (); buf = Bytes.create 65536;
      words = [| 0. |]; preload_used; admits = 0;
    }
  in
  (match rpc d P.Ping with
   | P.Pong -> ()
   | _ -> failwith "daemon did not answer ping");
  d

(* Shut the daemon down over the wire and close every socket; returns the
   minor words the server allocated over its life. *)
let stop d =
  (match rpc d P.Shutdown with
   | P.Bye -> ()
   | _ -> Util.fail "shutdown was not answered bye");
  if not (Core.stopping d.core) then Util.fail "the daemon did not stop on shutdown";
  Server.shutdown d.srv;
  Unix.close d.fd;
  d.words.(0)

(* One pass of the op stream over the wire.  Returns the decision lines
   (admitted with its cost, or blocked). *)
let wire_pass d ops (tm : Admit_engine.timing) =
  let b = Buffer.create 32768 in
  let ids = Hashtbl.create 64 in
  Util.Passes.start tm.lat;
  Util.Passes.start tm.rel;
  Array.iter
    (function
      | W.Admit { id; src; dst } ->
        let payload = P.encode_request (P.Admit { src; dst; policy = None }) in
        let t0 = Util.now_ns () in
        send d payload;
        let reply = recv d in
        Util.Passes.add tm.lat (Util.us_of_ns (Util.now_ns () - t0));
        tm.admits <- tm.admits + 1;
        d.admits <- d.admits + 1;
        (match decode reply with
         | P.Admitted { id = sid; cost } ->
           Hashtbl.replace ids id sid;
           W.wire_line b id (Some cost)
         | P.Blocked { cause = "validator_reject" } ->
           Util.fail "admit %d: the validator rejected the routed pair" id;
           W.wire_line b id None
         | P.Blocked _ -> W.wire_line b id None
         | P.Error { kind; msg } ->
           Util.fail "admit %d: %s error: %s" id (P.error_kind_name kind) msg;
           W.wire_line b id None
         | _ ->
           Util.fail "admit %d: unexpected reply" id;
           W.wire_line b id None)
      | W.Release id -> (
        match Hashtbl.find_opt ids id with
        | None -> ()
        | Some sid -> (
          tm.releases <- tm.releases + 1;
          let t0 = Util.now_ns () in
          let reply = rpc d (P.Release { id = sid }) in
          Util.Passes.add tm.rel (Util.us_of_ns (Util.now_ns () - t0));
          match reply with
          | P.Released _ -> ()
          | _ -> Util.fail "release %d: unexpected reply" id)))
    ops;
  (match rpc d P.Query with
   | P.Stats st ->
     if st.P.st_connections <> 0 then
       Util.fail "end of pass: daemon holds %d connections" st.P.st_connections;
     if st.P.st_in_use <> d.preload_used then
       Util.fail "end of pass: daemon has %d wavelengths in use, books say %d"
         st.P.st_in_use d.preload_used
   | _ -> Util.fail "query: unexpected reply");
  b

(* In-process replay of the same frames through [Protocol] and
   [Core.handle], each step timed (traced run). *)
type replay = {
  lat : Util.Passes.t;  (** decode + handle + encode of each admit frame, in us *)
  handled : Util.Passes.t;  (** [Core.handle] of each admit frame, in us *)
  mutable frames : int;
  mutable decode_ns : int;
  mutable handle_ns : int;
  mutable encode_ns : int;
}

let replay_pass core ops (r : replay) =
  let b = Buffer.create 32768 in
  Util.Passes.start r.lat;
  Util.Passes.start r.handled;
  let ids = Hashtbl.create 64 in
  let step payload =
    let t0 = Util.now_ns () in
    let req = P.decode_request payload in
    let t1 = Util.now_ns () in
    let resp =
      match req with
      | Ok req -> Core.handle core req
      | Error (kind, msg) -> P.Error { kind; msg }
    in
    let t2 = Util.now_ns () in
    let out = P.encode_response resp in
    let t3 = Util.now_ns () in
    (t1 - t0, t2 - t1, t3 - t2, out)
  in
  Array.iter
    (function
      | W.Admit { id; src; dst } ->
        let dec, hdl, enc, out =
          step (P.encode_request (P.Admit { src; dst; policy = None }))
        in
        r.frames <- r.frames + 1;
        r.decode_ns <- r.decode_ns + dec;
        r.handle_ns <- r.handle_ns + hdl;
        r.encode_ns <- r.encode_ns + enc;
        Util.Passes.add r.lat (Util.us_of_ns (dec + hdl + enc));
        Util.Passes.add r.handled (Util.us_of_ns hdl);
        (match decode out with
         | P.Admitted { id = sid; cost } ->
           Hashtbl.replace ids id sid;
           W.wire_line b id (Some cost)
         | P.Blocked _ -> W.wire_line b id None
         | _ ->
           Util.fail "replayed admit %d: unexpected reply" id;
           W.wire_line b id None)
      | W.Release id -> (
        match Hashtbl.find_opt ids id with
        | None -> ()
        | Some sid -> (
          let _, _, _, out = step (P.encode_request (P.Release { id = sid })) in
          match decode out with
          | P.Released _ -> ()
          | _ -> Util.fail "replayed release %d: unexpected reply" id)))
    ops;
  b
