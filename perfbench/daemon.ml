(* An eprocd child process, driven through Ewalk_serve.Client, the same
   loopback client [eproc load-test] uses.

   The daemon is started from the built binary with its state directory
   under the benchmark's own temporary directory.  It is always stopped
   with /quit and reaped, also when a check fails or the benchmark
   raises; a daemon left running would load the next run.  A request
   that hangs is bounded by run.py, which kills the run's process group,
   eprocd included, after 175 s. *)

type t = { pid : int; port : int; dir : string; mutable reaped : bool }

let live : t list ref = ref []

(* One request per connection (the daemon closes after each response).
   Returns the status and body, or status 0 with the error text when the
   exchange itself failed. *)
let request t ~meth ~path ?body () =
  match Ewalk_serve.Client.request ~port:t.port ~meth ~path ?body () with
  | Ok r -> (r.status, r.body)
  | Error e -> (0, e)

let ok status = status >= 200 && status < 300

(* -- process lifecycle ------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let wait_exit pid ~timeout =
  let deadline = Span.now () +. timeout in
  let rec go () =
    if exited pid then true
    else if Span.now () > deadline then false
    else (
      Unix.sleepf 0.01;
      go ())
  in
  go ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit pid ~timeout:10.)

let stop t =
  if not t.reaped then begin
    t.reaped <- true;
    live := List.filter (fun d -> d != t) !live;
    let status, _ = request t ~meth:"GET" ~path:"/quit" () in
    if not (ok status && wait_exit t.pid ~timeout:30.) then begin
      Printf.eprintf "perfbench: eprocd %d did not quit; killing it\n%!" t.pid;
      kill_and_reap t.pid
    end;
    rm_rf t.dir
  end

let () = at_exit (fun () -> List.iter stop !live)

(* The port eprocd announces on stderr once it listens.  Only complete
   lines count: the port may still be arriving. *)
let announced log =
  match In_channel.with_open_bin log In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match String.rindex_opt text '\n' with
      | None -> None
      | Some i ->
          String.split_on_char '\n' (String.sub text 0 i)
          |> List.find_map (fun line ->
                 Scanf.sscanf_opt line "eprocd: listening on http://127.0.0.1:%d" Fun.id))

(* Start eprocd with one serving domain and a resident cap above the
   session count, so only explicit hibernations write snapshots. *)
let start ~exe ~dir ~resident_cap =
  Unix.mkdir dir 0o755;
  let log = Filename.concat dir "eprocd.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  (* The daemon must not pick up run-store, flight-recorder or fault
     settings from the caller's environment. *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"EWALK_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let argv =
    [| exe; "--port"; "0"; "--state-dir"; Filename.concat dir "state";
       "--resident-cap"; string_of_int resident_cap; "--jobs"; "1" |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process_env exe argv env null out out)
  in
  let deadline = Span.now () +. 20. in
  let rec await () =
    match announced log with
    | Some port -> Ok port
    | None when exited pid -> Error "eprocd exited before announcing its port"
    | None when Span.now () > deadline ->
        Error "eprocd did not announce its port within 20 s"
    | None ->
        Unix.sleepf 0.005;
        await ()
  in
  match await () with
  | Ok port ->
      let t = { pid; port; dir; reaped = false } in
      live := t :: !live;
      t
  | Error e ->
      let text =
        try In_channel.with_open_bin log In_channel.input_all
        with Sys_error _ -> ""
      in
      kill_and_reap pid;
      rm_rf dir;
      failwith (Printf.sprintf "%s; its stderr was:\n%s" e text)
